"""Affine and quadratic forms in the symbolic parameters a_1..a_n.

An affine form is the int tuple (constant, coeffs...) itself, so the
engine's per-point pass adds forms as plain integer vectors and no form is
converted to another type.  Every coefficient is an integer: quadratic
forms store twice their coefficients, and a sign (-1)^p keeps its exponent
p as an affine form that is read mod 2.

The whole pipeline works under the standing assumption that every a_i is a
strictly positive integer that may be taken arbitrarily large, independently
of the others.  "Generic sign" of an affine form means its sign in that
regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from operator import add, neg, sub
from typing import Optional, Sequence

from .errors import InternalInconsistency


class AffineForm(tuple):
    """Integer affine-linear expression constant + sum(coeffs[i] * a_{i+1}).

    The form is the int tuple (constant, coeffs[0], .., coeffs[n-1]) itself,
    so it compares and hashes equal to that plain tuple.  ``+`` and ``-``
    act elementwise with a form or tuple of the same length, or on the
    constant with an int; they never concatenate.
    """

    __slots__ = ()

    def __new__(cls, constant: int, coeffs: Sequence[int]) -> "AffineForm":
        return tuple.__new__(cls, (constant, *coeffs))

    def __getnewargs__(self):
        # tuple's own would pass the whole tuple as the constant
        return self[0], self[1:]

    @property
    def constant(self) -> int:
        return self[0]

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self[1:]

    @property
    def n(self) -> int:
        return len(self) - 1

    @staticmethod
    def const(n: int, value: int) -> "AffineForm":
        return _of((value,) + (0,) * n)

    @staticmethod
    def param(n: int, i: int) -> "AffineForm":
        """The single parameter a_{i+1} (i is 0-based)."""
        return _of(int(j == i + 1) for j in range(n + 1))

    @staticmethod
    def total(n: int) -> "AffineForm":
        """sigma = a_1 + ... + a_n."""
        return _of((0,) + (1,) * n)

    def __add__(self, other) -> "AffineForm":
        if isinstance(other, int):
            return _of((self[0] + other, *self[1:]))
        if isinstance(other, tuple) and len(other) == len(self):
            return _of(map(add, self, other))
        return _mismatch(other)

    __radd__ = __add__

    def __sub__(self, other) -> "AffineForm":
        if isinstance(other, int):
            return _of((self[0] - other, *self[1:]))
        if isinstance(other, tuple) and len(other) == len(self):
            return _of(map(sub, self, other))
        return _mismatch(other)

    def __neg__(self) -> "AffineForm":
        return _of(map(neg, self))

    def scale(self, k: int) -> "AffineForm":
        return _of(k * x for x in self)

    def is_zero(self) -> bool:
        return not any(self)

    def evaluate(self, a: Sequence[int]) -> int:
        if len(a) != self.n:
            raise ValueError("parameter vector has wrong length")
        return self.constant + sum(c * v for c, v in zip(self.coeffs, a))

    def generic_sign(self) -> Optional[int]:
        """Sign of the form as every a_i grows without bound: 1, -1, 0, or
        None when the coefficients have both signs."""
        coeffs = self[1:] or (0,)
        lo, hi = min(coeffs), max(coeffs)
        if lo < 0 < hi:
            return None
        if hi > 0:
            return 1
        if lo < 0:
            return -1
        return (self[0] > 0) - (self[0] < 0)

    def __str__(self) -> str:
        parts = []
        if self.constant or not any(self.coeffs):
            parts.append(str(self.constant))
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            name = f"a{i + 1}"
            if c == 1:
                parts.append(f"+ {name}")
            elif c == -1:
                parts.append(f"- {name}")
            elif c > 0:
                parts.append(f"+ {c}*{name}")
            else:
                parts.append(f"- {-c}*{name}")
        out = " ".join(parts)
        if out.startswith("+ "):
            out = out[2:]
        return out


# The form whose tuple is the given ints, built in C without a Python call.
_of = partial(tuple.__new__, AffineForm)


def _mismatch(other):
    if isinstance(other, tuple):
        raise ValueError("affine forms over different parameter counts")
    return NotImplemented


def parity_reduce(form: Sequence[int]) -> Optional[int]:
    """The bit of (-1)^form if it does not depend on any a_i, else None.

    form is an ``AffineForm`` or any (constant, coeffs...) int sequence.  A
    sign exponent is read mod 2, so only the parity of each entry counts.
    """
    if any(c % 2 for c in form[1:]):
        return None
    return form[0] % 2


@cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The monomials x_i * x_j, 0 <= i <= j <= n, with x_0 = 1 and x_k = a_k.

    The n + 1 pairs with i = 0 (the constant and linear terms) come first.
    """
    return tuple((i, j) for i in range(n + 1) for j in range(i, n + 1))


@cache
def _pair_index(n: int) -> tuple[tuple[int, ...], ...]:
    """index[a][b]: the position of the monomial x_a x_b in ``_pairs(n)``."""
    pos = {p: k for k, p in enumerate(_pairs(n))}
    return tuple(
        tuple(pos[min(a, b), max(a, b)] for b in range(n + 1)) for a in range(n + 1)
    )


def _add_product(twice: list, f: AffineForm, g: AffineForm, k: int = 1) -> None:
    """Add k times the coefficients of f * g on the monomials of ``_pairs``
    to the list twice, in place."""
    index = _pair_index(len(f) - 1)
    for a, fa in enumerate(f):
        if fa:
            row = index[a]
            for b, gb in enumerate(g):
                if gb:
                    twice[row[b]] += k * fa * gb


@dataclass(frozen=True)
class QuadForm:
    """Quadratic form in a_1..a_n with coefficients in (1/2)Z.

    ``twice`` holds twice the coefficient of each monomial of ``_pairs(n)``,
    so every entry is an integer: only ``choose2`` halves, and what it
    halves is the integer product f * (f - 1).
    """

    n: int
    twice: tuple[int, ...]

    @staticmethod
    def zero(n: int) -> "QuadForm":
        return QuadForm(n, (0,) * len(_pairs(n)))

    @staticmethod
    def from_affine(form: AffineForm) -> "QuadForm":
        n = form.n
        affine = tuple(2 * x for x in form)
        return QuadForm(n, affine + (0,) * (len(_pairs(n)) - n - 1))

    @staticmethod
    def from_product(f: AffineForm, g: AffineForm) -> "QuadForm":
        """The quadratic form f(a) * g(a)."""
        twice = [0] * len(_pairs(f.n))
        _add_product(twice, f, g, 2)
        return QuadForm(f.n, tuple(twice))

    @staticmethod
    def choose2(form: AffineForm) -> "QuadForm":
        """binom(f, 2) = f*(f-1)/2, so twice it is f*(f-1)."""
        twice = [0] * len(_pairs(form.n))
        _add_product(twice, form, form - 1)
        return QuadForm(form.n, tuple(twice))

    def __add__(self, other: "QuadForm") -> "QuadForm":
        return QuadForm(self.n, tuple(x + y for x, y in zip(self.twice, other.twice)))

    def __sub__(self, other: "QuadForm") -> "QuadForm":
        return self + (-other)

    def __neg__(self) -> "QuadForm":
        return QuadForm(self.n, tuple(-t for t in self.twice))

    def evaluate(self, a: Sequence[int]) -> "Fraction":
        """The exact value at a; only numeric checks need it."""
        from fractions import Fraction

        x = (1, *a)
        doubled = sum(t * x[i] * x[j] for t, (i, j) in zip(self.twice, _pairs(self.n)))
        return Fraction(doubled, 2)


def quad_finalize(q: QuadForm) -> AffineForm:
    """Collapse a quadratic form whose quadratic part cancelled to an
    integral affine form; anything left over is a pipeline bug."""
    affine, quad = q.twice[: q.n + 1], q.twice[q.n + 1 :]
    if any(quad):
        raise InternalInconsistency(f"quadratic term survives in exponent: {q}")
    if any(t % 2 for t in affine):
        raise InternalInconsistency(f"non-integral exponent survives: {q}")
    return _of(t // 2 for t in affine)
