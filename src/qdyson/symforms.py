"""Affine and quadratic forms in the symbolic parameters a_1..a_n.

Every coefficient is an integer: quadratic forms store twice their
coefficients, and a sign (-1)^p keeps its exponent p as an affine form that
is read mod 2.

The whole pipeline works under the standing assumption that every a_i is a
strictly positive integer that may be taken arbitrarily large, independently
of the others.  "Generic sign" of an affine form means its sign in that
regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Optional, Sequence

from .errors import InternalInconsistency


class SignClass(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO = "zero"
    MIXED = "mixed"


@dataclass(frozen=True)
class AffineForm:
    """Integer affine-linear expression constant + sum(coeffs[i] * a_{i+1})."""

    constant: int
    coeffs: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def const(n: int, value: int) -> "AffineForm":
        return AffineForm(value, (0,) * n)

    @staticmethod
    def param(n: int, i: int) -> "AffineForm":
        """The single parameter a_{i+1} (i is 0-based)."""
        return AffineForm(0, tuple(1 if j == i else 0 for j in range(n)))

    @staticmethod
    def total(n: int) -> "AffineForm":
        """sigma = a_1 + ... + a_n."""
        return AffineForm(0, (1,) * n)

    def _coerce(self, other) -> "AffineForm":
        if isinstance(other, int):
            return AffineForm.const(self.n, other)
        if isinstance(other, AffineForm):
            if other.n != self.n:
                raise ValueError("affine forms over different parameter counts")
            return other
        return NotImplemented

    def __add__(self, other) -> "AffineForm":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AffineForm(
            self.constant + other.constant,
            tuple(x + y for x, y in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __sub__(self, other) -> "AffineForm":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "AffineForm":
        return (-self) + other

    def __neg__(self) -> "AffineForm":
        return AffineForm(-self.constant, tuple(-c for c in self.coeffs))

    def scale(self, k: int) -> "AffineForm":
        return AffineForm(k * self.constant, tuple(k * c for c in self.coeffs))

    def is_zero(self) -> bool:
        return self.constant == 0 and not any(self.coeffs)

    def evaluate(self, a: Sequence[int]) -> int:
        if len(a) != self.n:
            raise ValueError("parameter vector has wrong length")
        return self.constant + sum(c * v for c, v in zip(self.coeffs, a))

    def generic_sign(self) -> SignClass:
        """Sign of the form as every a_i grows without bound."""
        pos = any(c > 0 for c in self.coeffs)
        neg = any(c < 0 for c in self.coeffs)
        if pos and neg:
            return SignClass.MIXED
        if pos:
            return SignClass.POSITIVE
        if neg:
            return SignClass.NEGATIVE
        if self.constant > 0:
            return SignClass.POSITIVE
        if self.constant < 0:
            return SignClass.NEGATIVE
        return SignClass.ZERO

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


def parity_reduce(form: AffineForm) -> Optional[int]:
    """The bit of (-1)^form if it does not depend on any a_i, else None.

    A sign exponent is read mod 2, so only the parity of each entry counts.
    """
    if any(c % 2 for c in form.coeffs):
        return None
    return form.constant % 2


@cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The monomials x_i * x_j, 0 <= i <= j <= n, with x_0 = 1 and x_k = a_k.

    The n + 1 pairs with i = 0 (the constant and linear terms) come first.
    """
    return tuple((i, j) for i in range(n + 1) for j in range(i, n + 1))


def _product_coeffs(f: AffineForm, g: AffineForm) -> tuple[int, ...]:
    """Coefficients of f * g on the monomials of ``_pairs``."""
    fx = (f.constant, *f.coeffs)
    gx = (g.constant, *g.coeffs)
    return tuple(
        fx[i] * gx[i] if i == j else fx[i] * gx[j] + fx[j] * gx[i]
        for i, j in _pairs(f.n)
    )


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
        affine = (2 * form.constant, *(2 * c for c in form.coeffs))
        return QuadForm(n, affine + (0,) * (len(_pairs(n)) - n - 1))

    @staticmethod
    def from_product(f: AffineForm, g: AffineForm) -> "QuadForm":
        """The quadratic form f(a) * g(a)."""
        return QuadForm(f.n, tuple(2 * c for c in _product_coeffs(f, g)))

    @staticmethod
    def choose2(form: AffineForm) -> "QuadForm":
        """binom(f, 2) = f*(f-1)/2, so twice it is f*(f-1)."""
        return QuadForm(form.n, _product_coeffs(form, form - 1))

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
    return AffineForm(affine[0] // 2, tuple(t // 2 for t in affine[1:]))
