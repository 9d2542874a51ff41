"""Exact arbitrary-precision arithmetic.

Four sparse representations, all immutable in practice:

* ``QPoly`` -- integer Laurent polynomial in q.  A product is one big-int
  multiply: each factor is packed into one int under the Kronecker
  substitution q -> 2**width, and the product's digits are decoded.
  Binomials 1 - q^s are multiplied in and divided out in place, on the
  terms dict (``_times_one_minus`` and its inverse ``_divide_one_minus``);
* ``ZqPoly`` -- integer polynomial in q and z_1..z_n, Laurent exponents
  allowed (z_i stands for q^{a_i}).  Each exponent vector is packed into one
  int key with a 16-bit field per variable, so multiplying by a monomial adds
  one int to every key.  The packing is private: the constructor and
  ``items()`` take and give ((qexp, zexp), coeff) pairs.  Sums, atom products
  and atom quotients run in row form (``_Rows``): one Kronecker int in
  (z_n, q) per monomial in z_1..z_(n-1), from its own least slot, so 1 - m
  moves a row's key and least slot, never its int, and an exact quotient is
  a running sum along the lines of m, certified by digit-range and no-wrap checks;
* ``RationalQZ`` -- a ZqPoly numerator over a multiset of denominator
  atoms, never expanded.  Its sign and unit monomial are split off only
  when it is written (``render`` and ``cli.formula_json``);
* ``Summand`` -- sign * unit * a multiset of numerator atoms over a
  multiset of denominator atoms: one evaluation point's term, kept factored
  until it is summed (``cleared`` gives its ``sum_of`` pair, which shares
  numerator atoms across summands too) and rendered factored as well.

With z_i = q^{a_i}, a monomial q^c * prod z_i^{v_i} is q^L for the
``AffineForm`` L = c + v.a, the int tuple (c, v_1..v_n), and every exponent
outside a ZqPoly's terms is such a form: the unit of ``Summand`` (the one
stored unit), the argument of ``ZqPoly.mul_monomial``, and each ``Atom``
1 - q^L, which is its nonzero form L itself.  So specializing any of them
at concrete a is ``form.evaluate(a)``.

``ZqPoly``, ``RationalQZ`` and ``Summand`` render as text (``str``) or LaTeX
(``render(latex=True)``); ``QPoly``'s text uses ZqPoly's term renderer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import chain, compress, repeat
from operator import add, itemgetter, lshift, mul, or_
from struct import Struct, unpack
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import DenominatorVanishes, DimensionMismatch
from .symforms import AffineForm, _of


def _trimmed(d: Mapping) -> dict:
    return {k: v for k, v in d.items() if v}


class QPoly:
    """Sparse integer Laurent polynomial in q."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self.terms = _trimmed(terms) if terms else {}

    @staticmethod
    def _of(terms: dict[int, int]) -> "QPoly":
        """A QPoly on terms that hold no zero coefficient, without a copy."""
        out = QPoly.__new__(QPoly)
        out.terms = terms
        return out

    @staticmethod
    def one() -> "QPoly":
        return QPoly({0: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __add__(self, other: "QPoly") -> "QPoly":
        d = dict(self.terms)
        for e, c in other.terms.items():
            d[e] = d.get(e, 0) + c
        return QPoly(d)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __neg__(self) -> "QPoly":
        return QPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, int):
            return QPoly({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, QPoly):
            return NotImplemented
        f, g = self.terms, other.terms
        if not f or not g:
            return QPoly()
        # each product coefficient sums at most min(len) products of two
        # coefficients, so it is at most bound in magnitude
        bound = min(len(f), len(g)) * max(map(abs, f.values())) * max(map(abs, g.values()))
        width = _slot_width(bound.bit_length())
        low_f, low_g = min(f), min(g)
        return _unpack_q(
            _pack_q(f, low_f, width) * _pack_q(g, low_g, width), width, low_f + low_g
        )

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k."""
        return QPoly({e + k: c for e, c in self.terms.items()})

    def __str__(self) -> str:
        return _render_terms((((e, ()), c) for e, c in self.items()), False)

    __repr__ = __str__


# Kronecker substitution q -> 2**width: a q-polynomial whose exponents start
# at low is the int sum_k c_k 2**(width * (k - low)).  width is a multiple of
# 64 with every |c_k| <= 2**(width - 2), so each slot holds its digit exactly.
_WORD_BIAS = (1 << 63).to_bytes(8, "little")


def _slot_width(bits: int) -> int:
    """The slot width for digits below 2**bits in magnitude: a multiple of 64
    that leaves the two guard bits above them that _unpack_q needs."""
    return 64 * ((bits + 65) // 64)


def _pack_q(terms: Mapping[int, int], low: int, width: int) -> int:
    """The int sum_e c_e 2**(width * (e - low)) of the terms {e: c_e}."""
    return sum(c << width * (e - low) for e, c in terms.items())


def _unpack_q(packed: int, width: int, low: int = 0) -> QPoly:
    """The QPoly sum_k d_k q^(low + k), where d_k is the k-th signed
    width-bit digit of packed (each at most 2**(width - 2) in magnitude).

    Adding 2**63 to every 64-bit word of packed's slots makes each slot
    nonnegative and below 2**width, so no slot borrows from the next; the
    XOR then leaves each word as its value minus 2**63, a signed 64-bit word
    s_j, and a slot's digit is sum_j s_j * 2**(64 j).
    """
    slots = packed.bit_length() // width + 1
    limbs = width // 64
    bias = int.from_bytes(_WORD_BIAS * (slots * limbs), "little")
    raw = ((packed + bias) ^ bias).to_bytes(slots * width // 8, "little")
    words = unpack(f"<{slots * limbs}q", raw)
    digits = words[limbs - 1 :: limbs]
    for j in reversed(range(limbs - 1)):
        digits = tuple(map(add, map(lshift, digits, repeat(64)), words[j::limbs]))
    return QPoly._of(dict(compress(enumerate(digits, low), digits)))


def _times_one_minus(terms: dict[int, int], off: int, shift: int = 0) -> None:
    """Multiply terms by 1 - m in place, where m adds off to a key and
    multiplies its value by 2**shift.  Keys are visited away from the
    direction of off, so each is read before anything is written to it.
    off must be nonzero, as for an ``Atom``: 1 - q^0 is identically zero.

    Every product of binomials at concrete a is built here: the oracle's
    expansion and the verify-side specialization (``substitute_z`` and the
    q-Pochhammer products and q-multinomial of ``qpochhammer``).  The
    engine's R never touches it; ZqPoly moves packed (z_n, q) rows and their
    least slots (``_Rows._times``), so the check shares no kernel with it."""
    if not off:
        raise ValueError("1 - q^0 is identically zero")
    get = terms.get
    for k in sorted(terms, reverse=off > 0):
        t = k + off
        s = get(t, 0) - (terms[k] << shift)
        if s:
            terms[t] = s
        else:
            del terms[t]


def _divide_one_minus(terms: dict[int, int], s: int) -> None:
    """Divide the q-polynomial terms by 1 - q^s in place, s > 0.

    Euclid's division by a linear factor, as one ascending running sum:
    the quotient g of f has g_k = f_k + g_(k-s), and f is a multiple of
    1 - q^s exactly when the top s sums, the remainder, are all zero.
    Raises ArithmeticError otherwise, leaving terms unchanged."""
    if not terms:
        return
    low = min(terms)
    run = list(map(terms.get, range(low, max(terms) + 1), repeat(0)))
    for k in range(s, len(run)):
        run[k] += run[k - s]
    if any(run[-s:]):
        raise ArithmeticError(f"not a multiple of 1 - q^{s}")
    terms.clear()
    terms.update(compress(enumerate(run[:-s], low), run[:-s]))


def equal_as_rational(
    f: tuple[QPoly, QPoly], g: tuple[QPoly, QPoly]
) -> bool:
    """Exact equality of two fractions of q-polynomials by cross-multiplying."""
    fn, fd = f
    gn, gd = g
    if fd.is_zero() or gd.is_zero():
        raise ZeroDivisionError("zero denominator in rational comparison")
    return fn * gd == gn * fd


def _mono_str(exps: Sequence[int], latex: bool) -> str:
    """The monomial q^{exps[0]} * prod z_i^{exps[i]}."""
    names = ["q"] + [f"z_{{{i}}}" if latex else f"z{i}" for i in range(1, len(exps))]
    power = "{}^{{{}}}" if latex else "{}^{}"
    factors = [name if e == 1 else power.format(name, e) for name, e in zip(names, exps) if e]
    return (" " if latex else "*").join(factors) or "1"


def _render_terms(items: Iterable, latex: bool) -> str:
    """Signed sum of ((qexp, zexp), coeff) terms in the given order."""
    parts = []
    for (qe, ze), c in items:
        mono = _mono_str((qe, *ze), latex)
        if mono == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}{' ' if latex else '*'}{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


class Atom(AffineForm):
    """The factor 1 - q^L of a nonzero exponent form L = c + v.a, where
    q^L = q^c * prod z_i^{v_i}: the int tuple (c, v_1..v_n) itself, so atoms
    sort in (q-exponent, z-exponents) order.

    It is irreducible only when the exponents are coprime:
    1 - q^2 z^2 = (1 - q z)(1 + q z).
    """

    __slots__ = ()

    def __new__(cls, constant: int, coeffs: Sequence[int]) -> "Atom":
        atom = tuple.__new__(cls, (constant, *coeffs))
        if not any(atom):
            raise ValueError("atom 1 - q^0 is identically zero")
        return atom

    def __str__(self) -> str:
        return _atom_str(self, 1, False)


# The atom whose tuple is the given ints, for forms known to be nonzero.
_atom_of = partial(tuple.__new__, Atom)


def _atom_tuple(atoms: Mapping[Atom, int]) -> tuple[tuple[Atom, int], ...]:
    """A multiset of atoms as (atom, multiplicity) pairs in atom order."""
    return tuple(sorted(atoms.items()))


def _atom_str(atom: Atom, mult: int, latex: bool) -> str:
    body = f"1 - {_mono_str(atom, latex)}"
    if latex:
        return f"\\left({body}\\right)" + (f"^{{{mult}}}" if mult > 1 else "")
    return f"({body})" + (f"^{mult}" if mult > 1 else "")


def _fraction_str(
    sign: int, unit: AffineForm, factors: list[str], denom: tuple, latex: bool
) -> str:
    """sign * unit * factors / denom atoms, factors 1 left out: R or a summand."""
    parts = [p for p in (_mono_str(unit, latex), *factors) if p != "1"]
    num = (" " if latex else " * ").join(parts) or "1"
    sign_str = "-" if sign < 0 else ""
    if not denom:
        return f"{sign_str}{num}"
    den = " ".join(_atom_str(a, m, latex) for a, m in denom)
    if latex:
        return f"{sign_str}\\frac{{{num}}}{{{den}}}"
    return f"{sign_str}{num} / ({den})"


# Packed exponent keys.  A ZqPoly term q^{e_0} z_1^{e_1} .. z_n^{e_n} is keyed
# by the int sum_i (e_i + _BIAS) << (_STRIDE * i): one 16-bit field per
# variable, q in the lowest.  Exponents must lie in [-_BIAS, _BIAS), so the
# top two bits of every field of a valid key are clear.  Adding a valid key
# and an exponent vector in that range moves each field by less than 2**14
# and never carries out of it; if some field leaves the range, the lowest such
# field gets a top bit set, which _check_range detects.
_STRIDE = 16
_BIAS = 1 << 13
_FIELD = (1 << _STRIDE) - 1


class _Layout(NamedTuple):
    bias: int  # the key of the zero exponent vector
    guard: int  # the top two bits of every field
    nbytes: int
    unpack: Callable[[bytes], tuple[int, ...]]

    def rows(self, keys: Iterable[int]) -> list[tuple[int, ...]]:
        """Biased field values (e_0 + _BIAS, .., e_n + _BIAS) of each key."""
        raw = map(int.to_bytes, keys, repeat(self.nbytes), repeat("little"))
        return list(map(self.unpack, raw))


@cache
def _layout(n: int) -> _Layout:
    ones = sum(1 << (_STRIDE * i) for i in range(n + 1))
    return _Layout(
        bias=_BIAS * ones,
        guard=(_FIELD >> 2 ^ _FIELD) * ones,
        nbytes=2 * (n + 1),
        unpack=Struct(f"<{n + 1}H").unpack,
    )


def _offset(exps: Sequence[int]) -> int:
    """The int d with key(e + exps) == key(e) + d."""
    off = 0
    for e in reversed(exps):
        if not -_BIAS <= e < _BIAS:
            raise OverflowError(f"exponent {e} outside [{-_BIAS}, {_BIAS})")
        off = (off << _STRIDE) + e
    return off


def _check_range(keys: Iterable[int], n: int) -> None:
    """Raise unless every key is a valid packed exponent vector."""
    if reduce(or_, keys, 0) & _layout(n).guard:
        raise OverflowError(f"exponent outside [{-_BIAS}, {_BIAS})")


def _exps_offset(n: int, exps: Sequence[int]) -> int:
    """``_offset`` of the flat exponent vector (qexp, zexp_1..zexp_n)."""
    if len(exps) != n + 1:
        raise DimensionMismatch("z-exponent vector has wrong length")
    return _offset(exps)


@cache
def _line(n: int, atom: Atom) -> tuple[int, int, int, int]:
    """The row-key offset of z^v without its z_n part, the bit offset and
    value of that part's largest |v_i|, and v_n (0 when n = 0)."""
    _exps_offset(n, atom)  # the length and every exponent's range
    v = atom[1:n] or (0,)  # n <= 1: no atom moves a row
    i = max(range(len(v)), key=lambda j: abs(v[j]))
    return _offset((0, *atom[1:n])), _STRIDE * (i + 1), v[i], atom[n] if n else 0


def _plus(w: int, a: Optional[tuple], b: Optional[tuple]) -> Optional[tuple[int, int]]:
    """The sum of two rows (least slot, int) at slot width w, either one
    None for zero, with the empty slots at its low end stripped."""
    if not (a and b):
        return a or b
    (la, xa), (lb, xb) = (a, b) if a[0] <= b[0] else (b, a)
    if la < lb:  # xa's least slot holds a digit, so the sum's does too
        return la, xa + (xb << w * (lb - la))
    if not (x := xa + xb):
        return None
    z = ((x & -x).bit_length() - 1) // w
    return la + z, x >> w * z


def _add_rows(acc: dict, rows: Iterable[tuple[int, tuple[int, int]]], w: int) -> None:
    """acc[k] += r for (k, r) in rows, dropping rows that cancel."""
    get = acc.get
    for k, r in rows:
        if s := _plus(w, get(k), r):
            acc[k] = s
        else:
            del acc[k]


def _geometric(x: int, b: int) -> Optional[int]:
    """The int g with g - (g << b) == x, or None: G = x (1 + 2**b + .. + 2**(k - b)),
    doubled until 2**k > |x| >= |g|, is g - (g << k) if g exists, so G >> k gives g."""
    g, k = x, b
    while k <= x.bit_length():
        g, k = g + (g << k), 2 * k
    g = -(g >> k) if g <= 0 else ~(g >> k)
    return g if g - (g << b) == x else None


class _Rows:
    """A ZqPoly as rows: packed key, q and z_n fields cleared -> (least slot l,
    int).  Slot j is z_n^(j div Q) q^(base + j mod Q), both biased as in the
    key, and the int is sum_j c_j 2**(width (j - l)), with a digit in slot l."""

    __slots__ = ("n", "width", "base", "span", "rows")

    def __init__(self, n: int, terms: Iterable[tuple["ZqPoly", Mapping[Atom, int]]]):
        """The rows of ``ZqPoly.sum_of(n, terms)``.  No partial sum or product
        has L1 norm above sum L1(poly) 2**(sum mult) < 2**(width-2), nor a
        q-exponent outside [base, base + Q), Q = span: a poly's least and
        greatest plus t * mult over its atoms with t < 0 and with t > 0."""
        pending, bound, lows, highs = [], 0, [], []
        for p, atoms in terms:
            if p.n != n:
                raise DimensionMismatch("z-variable counts differ")
            pending.append((p._terms, atoms := +Counter(atoms)))
            bound += sum(map(abs, p._terms.values())) << sum(atoms.values())
            if p._terms:
                qs = list(map(_FIELD.__and__, p._terms))
                lows.append(min(qs) + sum(min(0, a[0]) * m for a, m in atoms.items()))
                highs.append(max(qs) + sum(max(0, a[0]) * m for a, m in atoms.items()))
        self.n, self.base, self.rows = n, min(lows, default=0), {}
        self.width = w = _slot_width(bound.bit_length())
        self.span = span = max(highs, default=0) - self.base + 1
        mid, top = ((1 << _STRIDE * n) - 1) & ~_FIELD, _STRIDE * max(n, 1)
        for i, (terms, atoms) in enumerate(pending):
            pending[i] = {}, atoms
            slots = ((k >> top) * span + (k & _FIELD) - self.base for k in terms)
            _add_rows(pending[i][0], zip(map(mid.__and__, terms), zip(slots, terms.values())), w)
        self._sum_into(self.rows, pending)

    def _sum_into(self, acc: dict, pending: list) -> None:
        """acc += sum of rows * prod(atom ** mult) over (rows, Counter) pairs,
        each this sum's own to change.  Multiplies late: the atom most pairs
        need (ties to the largest) goes into their partial sum once."""
        need = Counter(chain.from_iterable(map(itemgetter(1), pending)))
        if len(pending) == 1 or not need:  # multiply each pair's atoms in one by one
            for rows, atoms in pending:
                for atom in atoms.elements():
                    self._times(rows, atom)
                _add_rows(acc, rows.items(), self.width)
            return
        atom = max(zip(need.values(), need))[1]
        rest = [p for p in pending if atom not in p[1]]
        inner = [p for p in pending if atom in p[1]]
        for _, atoms in inner:
            atoms[atom] -= 1
            if not atoms[atom]:
                del atoms[atom]
        part = {} if acc else acc  # an empty acc takes the partial sum in place
        self._sum_into(part, inner)
        self._times(part, atom)
        if part is not acc:
            _add_rows(acc, part.items(), self.width)
        del part  # free the partial before summing the rest
        self._sum_into(acc, rest)

    def _times(self, rows: dict, atom: Atom) -> None:
        """Multiply rows by 1 - q^t z^v in place: row k, negated and its least
        slot moved by s = t + v_n Q, is added to row k + v' (v less v_n), and
        keys are visited away from v', so each row is read before it grows."""
        off, _, _, vn = _line(self.n, atom)
        _check_range(map(off.__add__, rows), self.n)
        keys, s = sorted(rows, reverse=off > 0), atom[0] + vn * self.span
        moved = ((k + off, (l + s, -x)) for k, (l, x) in zip(keys, map(rows.get, keys)))
        _add_rows(rows, moved, self.width)

    def divide(self, atom: Atom) -> bool:
        """Divide by the atom 1 - m in place if the quotient is a polynomial,
        else return False.  ``_quotient`` gives g with f = (1 - m) g as ints;
        g is redone at twice the width unless its digits lie in [-2**(w-2),
        2**(w-2)) like f's, so no slot carries, and is no polynomial quotient
        if a digit's q + t leaves [base, base + Q): its slot wraps a z_n step."""
        while (quo := self._quotient(atom)) is not None:
            w, t, span, wraps, checks = self.width, atom[0], self.span, False, {}
            band = b"".join((b"\xff", b"\0")[0 <= j + t < span] * (w // 8) for j in range(span))
            for l, x in quo.values():  # one bias and phase-0 mask per row size
                if (size := x.bit_length() // w + 1) not in checks:
                    bias = int.from_bytes((bytes(w // 8 - 1) + b"@") * size, "little")
                    mask = int.from_bytes(band * (size // span + 2), "little")
                    checks[size] = bias, bias << 1 | -1 << size * w, mask
                bias, guard, mask = checks[size]
                if (y := x + bias) & guard:
                    break
                wraps = wraps or (y ^ bias) & mask >> l % span * w
            else:
                self.rows = self.rows if wraps else quo
                return not wraps
            self.width = 2 * w
            for k, (l, x) in self.rows.items():
                self.rows[k] = l, _pack_q(_unpack_q(x, w).terms, 0, 2 * w)
        return False

    def _quotient(self, atom: Atom) -> Optional[dict]:
        """Rows g with self = (1 - q^t z^v) g as ints, or None if none exist:
        for v = v_n e_n one ``_geometric`` per row, else a running sum g_k =
        f_k + m g_(k-v) along each line k + Z v of row keys, whose value past
        the end is the remainder.  A line is named by its key at position 0,
        the field where |v| is largest floor divided by v there: key and step
        differences stay below 2**14 + (2**14 + 2**13) < 2**16, so no field
        carries and two lines never share a name.  |t| >= Q leaves none."""
        (zoff, shift, step, vn), rows, out = _line(self.n, atom), self.rows, {}
        s, w = atom[0] + vn * self.span, self.width
        if rows and abs(atom[0]) >= self.span:
            return None
        if not zoff:
            for k, (l, x) in rows.items():
                if (g := _geometric(x if s > 0 else -x, abs(s) * w)) is None:
                    return None
                out[k] = (l if s > 0 else l - s, g)
            return out
        keys = sorted(rows, reverse=zoff < 0)
        names = [k - (k >> shift & _FIELD) // step * zoff for k in keys]
        last, get = dict(zip(names, keys)), rows.get  # each line's last key
        for name, first in zip(names, keys):
            if (end := last.pop(name, None)) is None:  # a line already walked
                continue
            acc = None
            for k in range(first, end + zoff, zoff):
                if acc := _plus(w, get(k), acc and (acc[0] + s, acc[1])):
                    out[k] = acc
            if acc:
                return None
        return out

    def poly(self) -> "ZqPoly":
        """Each row decoded by one ``_unpack_q`` from its least slot, and each
        slot by one divmod by Q; OverflowError past the range of q or z_n."""
        w, span, base, top, out = self.width, self.span, self.base, _STRIDE * max(self.n, 1), {}
        for k, (l, x) in self.rows.items():
            for j, c in _unpack_q(x, w, l).terms.items():
                z, q = divmod(j, span)
                if not 0 <= z < 2 * _BIAS > q + base >= 0:
                    raise OverflowError(f"exponent outside [{-_BIAS}, {_BIAS})")
                out[k + (z << top) + q + base] = c
        return ZqPoly._of(self.n, out)


class ZqPoly:
    """Sparse integer polynomial in q and z_1..z_n (Laurent exponents allowed).

    Terms are stored as packed exponent key -> nonzero integer coefficient;
    the constructor and items() speak ((qexp, zexp-tuple), coeff).
    Exponents must lie in [-8192, 8192): an atom product whose exponents of
    z_1..z_(n-1) leave that range raises OverflowError at once, of q or z_n
    when the row form is decoded.
    """

    __slots__ = ("n", "_terms")

    def __init__(
        self,
        n: int,
        terms: Mapping[tuple[int, tuple[int, ...]], int] | Iterable = (),
    ):
        self.n = n
        bias = _layout(n).bias
        d: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (qe, ze), c in items:
            k = bias + _exps_offset(n, (qe, *ze))
            d[k] = d.get(k, 0) + c
        self._terms = _trimmed(d)

    @staticmethod
    def _of(n: int, terms: dict[int, int]) -> "ZqPoly":
        out = ZqPoly.__new__(ZqPoly)
        out.n = n
        out._terms = terms
        return out

    @staticmethod
    def one(n: int) -> "ZqPoly":
        return ZqPoly(n, {(0, (0,) * n): 1})

    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list[tuple[tuple[int, tuple[int, ...]], int]]:
        """Terms in graded-lexicographic order on (qexp, zexp)."""
        rows = _layout(self.n).rows(self._terms)
        out = []
        for _, row, c in sorted(zip(map(sum, rows), rows, self._terms.values())):
            qe, *ze = (v - _BIAS for v in row)
            out.append(((qe, tuple(ze)), c))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZqPoly):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    def __add__(self, other: "ZqPoly") -> "ZqPoly":
        return ZqPoly.sum_of(self.n, ((self, {}), (other, {})))

    @staticmethod
    def sum_of(n: int, terms: Iterable[tuple["ZqPoly", Mapping[Atom, int]]]) -> "ZqPoly":
        """Sum of poly * prod(atom ** mult) over (poly, {atom: mult}) pairs."""
        return _Rows(n, terms).poly()

    def __neg__(self) -> "ZqPoly":
        return ZqPoly._of(self.n, {k: -c for k, c in self._terms.items()})

    def _shifted(self, off: int, coeff: int) -> "ZqPoly":
        """coeff * self with every key moved by off."""
        terms = {k + off: c * coeff for k, c in self._terms.items()}
        _check_range(terms, self.n)
        return ZqPoly._of(self.n, terms)

    def mul_monomial(self, exps: Sequence[int], coeff: int = 1) -> "ZqPoly":
        """coeff * self * q^{exps[0]} * prod z_i^{exps[i]}."""
        return self._shifted(_exps_offset(self.n, exps), coeff)

    def mul_atom(self, atom: Atom) -> "ZqPoly":
        """Multiply by the atom."""
        return ZqPoly.sum_of(self.n, [(self, {atom: 1})])

    def div_atom(self, atom: Atom) -> Optional["ZqPoly"]:
        """Exact quotient by the atom 1 - m, or None when not divisible."""
        rows = _Rows(self.n, [(self, {})])
        return rows.poly() if rows.divide(atom) else None

    def extract_unit(self) -> tuple["ZqPoly", AffineForm, int]:
        """Factor self = sign * monomial * reduced with the reduced polynomial
        having exponent minima 0 in every coordinate and a positive leading
        (graded-lex greatest) coefficient."""
        if self.is_zero():
            return self, AffineForm.const(self.n, 0), 1
        rows = _layout(self.n).rows(self._terms)
        lows = [min(col) for col in zip(*rows)]
        lead = max(zip(map(sum, rows), rows, self._terms.values()))[2]
        sign = 1 if lead > 0 else -1
        low = _of(v - _BIAS for v in lows)
        return self._shifted(-_offset(low), sign), low, sign

    def substitute_z(self, a: Sequence[int]) -> QPoly:
        """Apply z_i -> q^{a_i}; exact Laurent polynomial in q."""
        if len(a) != self.n:
            raise DimensionMismatch("substitution vector has wrong length")
        weights = (1, *a)
        zero = _BIAS * sum(weights)
        d: dict[int, int] = {}
        for row, c in zip(_layout(self.n).rows(self._terms), self._terms.values()):
            e = sum(map(mul, row, weights)) - zero
            d[e] = d.get(e, 0) + c
        return QPoly(d)

    def render(self, latex: bool = False) -> str:
        """Signed sum of the terms in graded-lex order, as text or LaTeX."""
        return _render_terms(self.items(), latex)

    __str__ = __repr__ = render


@dataclass(frozen=True)
class RationalQZ:
    """numer / prod(atoms); the factored rational function R.

    The denominator is a multiset of atoms, stored as a sorted tuple of
    (atom, multiplicity) pairs and never expanded.
    """

    numer: ZqPoly
    denom: tuple[tuple[Atom, int], ...]

    @property
    def n(self) -> int:
        return self.numer.n

    @staticmethod
    def zero(n: int) -> "RationalQZ":
        return RationalQZ(ZqPoly(n), ())

    @staticmethod
    def one(n: int) -> "RationalQZ":
        return RationalQZ(ZqPoly.one(n), ())

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def denom_counter(self) -> Counter:
        return Counter(dict(self.denom))

    @staticmethod
    def make(numer: ZqPoly, denom: Mapping[Atom, int] | Counter) -> "RationalQZ":
        """Canonical constructor: cancels atoms into numer by trial division."""
        return RationalQZ.sum_of(numer.n, [(numer, {})], denom)

    @staticmethod
    def sum_of(n: int, terms: Iterable, denom: Mapping[Atom, int]) -> "RationalQZ":
        """make(ZqPoly.sum_of(n, terms), denom), the sum never decoded."""
        rows, remaining = _Rows(n, terms), Counter()
        if not rows.rows:
            return RationalQZ.zero(n)
        for atom, mult in denom.items():
            if mult < 0:
                raise ValueError("negative atom multiplicity")
            while mult and rows.divide(atom):
                mult -= 1
            remaining[atom] = mult
        return RationalQZ(rows.poly(), _atom_tuple(+remaining))

    def render(self, latex: bool = False) -> str:
        """Human-readable sign * unit * reduced numer / atoms form."""
        if self.is_zero():
            return "0"
        reduced, unit, sign = self.numer.extract_unit()
        numer = reduced.render(latex)
        factor = numer if len(numer.split()) == 1 else f"({numer})"
        return _fraction_str(sign, unit, [factor], self.denom, latex)

    __str__ = render


@dataclass(frozen=True)
class Summand:
    """sign * unit * prod(numer atoms) / prod(denom atoms); one point's term
    of the grid sum.

    Both multisets are sorted tuples of (atom, multiplicity) pairs, kept
    factored into the combine and into the output.
    """

    sign: int
    unit: AffineForm
    numer: tuple[tuple[Atom, int], ...]
    denom: tuple[tuple[Atom, int], ...]

    @property
    def n(self) -> int:
        return self.unit.n

    def denom_counter(self) -> Counter:
        return Counter(dict(self.denom))

    def cleared(self, extra_denom: Mapping[Atom, int]) -> tuple[ZqPoly, Counter]:
        """(sign * unit, numerator atoms plus extra atoms): a ``sum_of`` pair."""
        atoms = Counter(dict(self.numer))
        atoms.update(extra_denom)
        return ZqPoly(self.n, [((self.unit[0], self.unit[1:]), self.sign)]), atoms

    def cleared_numer(self, extra_denom: Mapping[Atom, int] = ()) -> ZqPoly:
        """sign * unit * prod(numer atoms) * prod(extra atoms) as one ZqPoly."""
        return ZqPoly.sum_of(self.n, [self.cleared(extra_denom)])

    def render(self, latex: bool = False) -> str:
        """sign * unit * (numer atoms) / (denom atoms), nothing expanded."""
        factors = [_atom_str(a, m, latex) for a, m in self.numer]
        return _fraction_str(self.sign, self.unit, factors, self.denom, latex)

    __str__ = render


def substitute_z(r: RationalQZ, a: Sequence[int]) -> tuple[QPoly, QPoly]:
    """Specialize z_i -> q^{a_i}; returns (numerator, denominator) QPolys."""
    num = r.numer.substitute_z(a)
    den = {0: 1}
    for atom, mult in r.denom:
        e = atom.evaluate(a)
        if e == 0:
            raise DenominatorVanishes(f"atom {atom} vanishes at a={tuple(a)}")
        for _ in range(mult):
            _times_one_minus(den, e)
    return num, QPoly._of(den)
