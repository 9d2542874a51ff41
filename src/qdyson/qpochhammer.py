"""Symbolic q-Pochhammer algebra.

A ``QExpr`` is a value of the shape

    (-1)^parity * q^qexp * prod (q)_L ^ e_L

where parity is an affine form read mod 2, qexp a quadratic form with
coefficients in (1/2)Z, and each L an affine-linear form in a_1..a_n with
nonnegative generic sign.
Evaluations of the cleared q-Dyson product and of the grid node-polynomial
derivatives both land here, one Pochhammer window per pair and one
``QExpr.product`` per point; the parts of the product that do not depend on
the point are built once per n.  ``normalize_to_rational`` then divides out
the q-multinomial coefficient and collapses what survives into a
``Summand``: a sign and monomial in q and z_1..z_n (z_i = q^{a_i}) times a
ratio of atom multisets, with the numerator left unexpanded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Mapping, Sequence

from .errors import InternalInconsistency, MixedSign
from .exactalg import Atom, QPoly, Summand, ZqMonomial
from .exactalg import _atom_tuple, _divide_one_minus, _times_one_minus
from .symforms import (
    AffineForm,
    QuadForm,
    SignClass,
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
            if index.generic_sign() not in (SignClass.POSITIVE, SignClass.ZERO):
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
    if fs == SignClass.ZERO:
        return QExpr.identity(n)
    if fs != SignClass.POSITIVE:
        raise MixedSign(f"Pochhammer length f = {f} is not generically >= 0")
    se = e.generic_sign()
    top = e + f - 1
    st = top.generic_sign()
    if se == SignClass.POSITIVE:
        return QExpr.build(
            n,
            AffineForm.const(n, 0),
            QuadForm.zero(n),
            Counter({top: 1, e - 1: -1}),
        )
    if st == SignClass.NEGATIVE:
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
    if se in (SignClass.ZERO, SignClass.NEGATIVE) and st in (
        SignClass.ZERO,
        SignClass.POSITIVE,
    ):
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
    """What ``evaluate_product_at_point`` needs at n that no point changes:
    each pair's (i, j, a_j, a_i + a_j), the sign exponent sum_{i<j} a_j,
    the q-power sum_{i<j} binom(a_j + 1, 2), and per j the factor
    g_j = sum_{i<j} (a_i + a_j) of alpha_j in the linear q-power."""
    a = [AffineForm.param(n, i) for i in range(n)]
    pairs = tuple((i, j, a[j], a[i] + a[j]) for i in range(n) for j in range(i + 1, n))
    qexp = sum((QuadForm.choose2(aj + 1) for _, _, aj, _ in pairs), QuadForm.zero(n))
    g = [AffineForm(0, (1,) * j + (j,) + (0,) * (n - j - 1)) for j in range(n)]
    return pairs, AffineForm(0, tuple(range(n))), qexp, g


def evaluate_product_at_point(alpha: Sequence[AffineForm]) -> QExpr:
    """The cleared q-Dyson product F at x_i = q^{alpha_i}.

    F multiplies each pair factor (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j} by the
    monomial x_j^{a_i} x_i^{a_j}.  With e = alpha_i - alpha_j, reflecting
    each binomial of the second half, 1 - q^{s-e} = -q^{s-e} (1 - q^{e-s}),
    joins the two halves into one window of consecutive binomials:

        (-1)^{a_j} q^{alpha_j (a_i + a_j) + binom(a_j + 1, 2)} (q^{e - a_j})_{a_i + a_j}

    So each pair i < j costs one Pochhammer rewrite.  The signs and the
    binomial q-powers do not depend on the point, and the linear q-powers
    sum to sum_j alpha_j g_j; they make one more factor of the point's
    single product.
    """
    n = len(alpha)
    pairs, parity, qexp, g = _pair_terms(n)
    windows = []
    for i, j, aj, f in pairs:
        window = rewrite_pochhammer(alpha[i] - alpha[j] - aj, f)
        if window.is_zero():
            return window
        windows.append(window)
    qexp = sum((QuadForm.from_product(alpha[j], g[j]) for j in range(1, n)), qexp)
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
        if form.generic_sign() not in (SignClass.POSITIVE, SignClass.ZERO):
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


def _pair_group(
    vec: tuple[int, ...],
    numers: list[int],
    denoms: list[int],
    num_atoms: Counter,
    den_atoms: Counter,
) -> None:
    """Pair numerator/denominator (q)_L factors sharing the a-coefficient
    vector ``vec`` (sorted by constant offset) and expand each pair into
    atoms 1 - q^t z^vec."""
    if len(numers) != len(denoms):
        raise InternalInconsistency(
            f"unmatched (q)_L factors with coefficient vector {vec}: "
            f"{len(numers)} in the numerator vs {len(denoms)} in the denominator"
        )
    numers.sort()
    denoms.sort()
    for cn, cd in zip(numers, denoms):
        if cn >= cd:
            # (q)_{L+cn-cd}/(q)_L = prod_{t=cd+1}^{cn} (1 - q^t z^vec)
            for t in range(cd + 1, cn + 1):
                num_atoms[Atom(t, vec)] += 1
        else:
            for t in range(cn + 1, cd + 1):
                den_atoms[Atom(t, vec)] += 1


def normalize_to_rational(expr: QExpr, n: int) -> Summand:
    """Divide a q-expression by the q-multinomial coefficient and collapse
    the survivors into a factored rational function of q and z_1..z_n.

    The a-dependent signs and quadratic q-exponents must cancel and every
    surviving (q)_L group must pair up; any leftover contradicts the
    rationality of the coefficient and aborts.  So do a constant-index
    (q)_m in the numerator, a numerator atom with a z-exponent above 1, and
    an atom on both sides.  Past those checks every numerator atom
    1 - q^t z^v has a nonzero 0/1 vector v, so it is irreducible, and every
    atom's v is nonnegative (each (q)_L index is generically >= 0).  A
    denominator atom could then divide the numerator only by being one of
    its atoms, so no trial division can win: the numerator stays a product
    of atoms, and ``Summand.rational`` expands it only for output.
    """
    if expr.is_zero():
        raise InternalInconsistency("cannot normalize the zero q-expression")
    net = Counter(dict(expr.poch))
    net.subtract(q_multinomial_symbols(n))

    groups: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    num_atoms: Counter = Counter()
    den_atoms: Counter = Counter()
    for index, exp in net.items():
        if exp == 0:
            continue
        if not any(index.coeffs):
            m = index.constant
            if m < 0 or exp > 0:
                raise InternalInconsistency(
                    f"numeric factor (q)_{m} with exponent {exp} survives"
                )
            for s in range(1, m + 1):
                den_atoms[Atom(s, (0,) * n)] -= exp
            continue
        sides = groups.setdefault(index.coeffs, ([], []))
        sides[exp < 0].extend([index.constant] * abs(exp))

    for vec in sorted(groups):
        numers, denoms = groups[vec]
        _pair_group(vec, numers, denoms, num_atoms, den_atoms)
    for atom in num_atoms:
        if max(atom.zexp) > 1 or atom in den_atoms:
            raise InternalInconsistency(
                f"numerator atom {atom} has a z-exponent above 1 or is also "
                "a denominator atom"
            )

    bit = parity_reduce(expr.parity)
    if bit is None:
        raise InternalInconsistency(
            f"a-dependent sign survives normalization: {expr.parity}"
        )
    exponent = quad_finalize(expr.qexp)
    return Summand(
        -1 if bit else 1,
        ZqMonomial(exponent.constant, exponent.coeffs),
        _atom_tuple(num_atoms),
        _atom_tuple(den_atoms),
    )


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
