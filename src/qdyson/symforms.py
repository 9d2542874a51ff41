"""Affine, quadratic and parity forms in the symbolic parameters a_1..a_n.

The whole pipeline works under the standing assumption that every a_i is a
strictly positive integer that may be taken arbitrarily large, independently
of the others.  "Generic sign" of an affine form means its sign in that
regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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


@dataclass(frozen=True)
class ParityForm:
    """Mod-2 affine form; tracks the exponent of (-1)."""

    constant: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.constant not in (0, 1) or any(c not in (0, 1) for c in self.coeffs):
            raise ValueError("parity entries must be bits")

    @staticmethod
    def zero(n: int) -> "ParityForm":
        return ParityForm(0, (0,) * n)

    @staticmethod
    def from_affine(form: AffineForm) -> "ParityForm":
        return ParityForm(form.constant % 2, tuple(c % 2 for c in form.coeffs))

    def __add__(self, other: "ParityForm") -> "ParityForm":
        return ParityForm(
            (self.constant + other.constant) % 2,
            tuple((x + y) % 2 for x, y in zip(self.coeffs, other.coeffs)),
        )

    def evaluate(self, a: Sequence[int]) -> int:
        return (self.constant + sum(c * v for c, v in zip(self.coeffs, a))) % 2


def parity_reduce(p: ParityForm) -> Optional[int]:
    """The constant bit if the parity does not depend on any a_i, else None."""
    if any(p.coeffs):
        return None
    return p.constant


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class QuadForm:
    """Exact-rational quadratic form in a_1..a_n.

    quad is a full symmetric n x n matrix of Fractions, so the value is
    constant + linear . a + a^T quad a.
    """

    constant: Fraction
    linear: tuple[Fraction, ...]
    quad: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.linear)

    @staticmethod
    def zero(n: int) -> "QuadForm":
        z = Fraction(0)
        return QuadForm(z, (z,) * n, tuple(((z,) * n) for _ in range(n)))

    @staticmethod
    def from_affine(form: AffineForm) -> "QuadForm":
        base = QuadForm.zero(form.n)
        return QuadForm(
            _frac(form.constant),
            tuple(_frac(c) for c in form.coeffs),
            base.quad,
        )

    @staticmethod
    def from_product(f: AffineForm, g: AffineForm) -> "QuadForm":
        """The quadratic form f(a) * g(a)."""
        n = f.n
        quad = tuple(
            tuple(
                Fraction(f.coeffs[i] * g.coeffs[j] + f.coeffs[j] * g.coeffs[i], 2)
                for j in range(n)
            )
            for i in range(n)
        )
        linear = tuple(
            Fraction(f.constant * g.coeffs[i] + g.constant * f.coeffs[i])
            for i in range(n)
        )
        return QuadForm(Fraction(f.constant * g.constant), linear, quad)

    @staticmethod
    def choose2(form: AffineForm) -> "QuadForm":
        """binom(f, 2) = f*(f-1)/2, exact over the rationals."""
        return QuadForm.from_product(form, form - 1).scale(Fraction(1, 2))

    def __add__(self, other: "QuadForm") -> "QuadForm":
        return QuadForm(
            self.constant + other.constant,
            tuple(x + y for x, y in zip(self.linear, other.linear)),
            tuple(
                tuple(x + y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.quad, other.quad)
            ),
        )

    def __sub__(self, other: "QuadForm") -> "QuadForm":
        return self + other.scale(-1)

    def __neg__(self) -> "QuadForm":
        return self.scale(-1)

    def scale(self, k) -> "QuadForm":
        k = _frac(k)
        return QuadForm(
            self.constant * k,
            tuple(c * k for c in self.linear),
            tuple(tuple(c * k for c in row) for row in self.quad),
        )

    def is_zero(self) -> bool:
        return (
            self.constant == 0
            and not any(self.linear)
            and not any(any(row) for row in self.quad)
        )

    def evaluate(self, a: Sequence[int]) -> Fraction:
        val = self.constant + sum(c * v for c, v in zip(self.linear, a))
        for i in range(self.n):
            for j in range(self.n):
                val += self.quad[i][j] * a[i] * a[j]
        return val


def quad_finalize(q: QuadForm) -> AffineForm:
    """Collapse a quadratic form whose quadratic part cancelled to an
    integral affine form; anything left over is a pipeline bug."""
    if any(any(row) for row in q.quad):
        raise InternalInconsistency(f"quadratic term survives in exponent: {q}")
    if q.constant.denominator != 1 or any(c.denominator != 1 for c in q.linear):
        raise InternalInconsistency(f"non-integral exponent survives: {q}")
    return AffineForm(int(q.constant), tuple(int(c) for c in q.linear))
