"""Univariate polynomials over F_q, primes and valuations.

Polynomials are coefficient tuples in ascending order with no trailing
zeros; the zero polynomial is the empty tuple and reports degree -1 as
its sentinel.  There is no separate rational-function type: an element
of F_q(x) is a line ``curvering.RingFraction``, a numerator over a monic
denominator coprime to it.

Primes of F_q(x) relative to the polynomial ring are the monic
irreducible polynomials plus the distinguished infinite place, where
the valuation of num/den is deg(den) - deg(num).  ``valuation`` takes a
polynomial or a fraction with no y part.  The residue field at a finite
prime of degree d is F_{q^d}, where the prime's closed place is a
Frobenius orbit (``curvepoints.enumerate_points``); reducing there is
evaluating at a root.

Primality and factoring read the Frobenius powers x^(q^j) mod f,
computed by ``pow(h, q, f)``, with no extension field and no candidate
divisors (von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 14).
``is_irreducible`` is Ben-Or's test, and ``factor`` is distinct-degree
factorization.  ``monic_irreducibles`` lists the primes of a degree d,
the minimal polynomials of the line's Frobenius orbits of length d, and
splits a distinct-degree part that holds two or more primes.

Text grammar for polynomials: integer coefficients, variable x,
caret powers, e.g. ``x^3+2*x+3``; coefficients are read mod p.  An
exponent above MAX_TEXT_DEGREE is refused before anything is allocated.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Iterator, Optional

from .finfield import MAX_INSPECTION_SIZE, FieldElement, FiniteField, RingOps, _horner, capped_power, embed, square_and_multiply, t_poly_text
from .records import Record

FACTOR_DEGREE_BOUND = 24
MAX_TEXT_DEGREE = 256  # largest exponent the text grammar accepts


class Poly(RingOps):
    """A polynomial in F_q[x]."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs=()):
        normalized = [c if type(c) is FieldElement and c.field is field else field.element(c) for c in coeffs]
        while normalized and normalized[-1].is_zero():
            normalized.pop()
        self.field = field
        self.coeffs = tuple(normalized)

    @classmethod
    def _raw(cls, field, coeffs):
        # internal: coeffs are FieldElements of this field already
        n = len(coeffs)
        while n and coeffs[n - 1].is_zero():
            n -= 1
        poly = object.__new__(cls)
        poly.field = field
        poly.coeffs = tuple(coeffs[:n])
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field) -> Poly:
        return _constants(field)[0]

    @classmethod
    def one(cls, field) -> Poly:
        return _constants(field)[1]

    @classmethod
    def x(cls, field) -> Poly:
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, c) -> Poly:
        return cls(field, (c,))

    @classmethod
    def from_text(cls, field, text: str) -> Poly:
        return _parse_poly(field, text)

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> FieldElement:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else self.field.zero()

    def leading_coeff(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def monic(self) -> Poly:
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        inv = self.coeffs[-1].inverse()
        return Poly(self.field, [c * inv for c in self.coeffs])

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field != self.field:
                raise ValueError("mismatched base fields")
            return other
        if isinstance(other, (int, FieldElement)):
            return Poly.constant(self.field, other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not Poly or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly._raw(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        if type(other) is not Poly or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        out = list(a) + [self.field.zero()] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = out[i] - c
        return Poly._raw(self.field, out)

    def __mul__(self, other):
        """The product; a constant factor scales the other one, and 1
        returns it."""
        if type(other) is not Poly or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(b) < len(a):
            a, b, other = b, a, self  # the shorter factor first
        if not a:
            return Poly.zero(self.field)
        if len(a) == 1:  # a constant scales the other factor
            c = a[0]
            return other if c is self.field.one() else Poly._raw(self.field, [c * y for y in b])
        out = [self.field.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return Poly._raw(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e: int, modulus=None):
        """self^e for e >= 0 by ``finfield.square_and_multiply``;
        ``pow(f, e, m)`` reduces every product mod m, and the result once
        more, so that pow(f, 0, m) is 1 mod m."""
        if modulus is None:
            return square_and_multiply(Poly.one(self.field), self, e)
        return square_and_multiply(Poly.one(self.field), self, e, lambda a, b: a * b % modulus) % modulus

    def __divmod__(self, other):
        if type(other) is not Poly or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo = [self.field.zero()] * max(len(self.coeffs) - len(other.coeffs) + 1, 1)
        rem = list(self.coeffs)
        inv_lead = other.coeffs[-1].inverse()
        while len(rem) >= len(other.coeffs) and rem:
            factor = rem[-1] * inv_lead
            shift = len(rem) - len(other.coeffs)
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - factor * c
            while rem and rem[-1].is_zero():
                rem.pop()
        return Poly._raw(self.field, quo), Poly._raw(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def evaluate(self, x0: FieldElement) -> FieldElement:
        """Horner evaluation (``finfield._horner``); coefficients are
        embedded if x0 lives in an extension of the base field."""
        target = x0.field
        return _horner(self.coeffs if target is self.field else [embed(c, target) for c in self.coeffs], x0)

    __call__ = evaluate

    # -- misc ------------------------------------------------------------

    def __eq__(self, other):
        if type(other) is Poly and other.field is self.field:
            return self.coeffs == other.coeffs
        if isinstance(other, (int, FieldElement)):
            other = Poly.constant(self.field, other)
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.q, tuple(c.coeffs for c in self.coeffs)))

    def sort_key(self):
        return (self.degree, tuple(c.coeffs for c in self.coeffs))

    def __repr__(self):
        return f"Poly({to_text(self)!r})"

    def __str__(self):
        return to_text(self)


@functools.cache
def _constants(field: FiniteField):
    """(0, 1) of F_q[x], one shared pair per field: no Poly changes after it is built."""
    return Poly._raw(field, ()), Poly._raw(field, (field.one(),))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


# ---------------------------------------------------------------------------
# Text grammar


# a term is a coefficient, x to a power, or both, after an optional sign,
# and is followed by the next term's sign or the end.  Text is checked
# against the whole grammar once, then read term by term with no check
_POLY_RE = re.compile(r"(?:[+-]?(?:\d+(?:\*?x(?:\^\d+)?)?|\*?x(?:\^\d+)?)(?=[+-]|\Z))+")
_TERM_RE = re.compile(r"([+-]?)(\d*)(?:\*?(x)(?:\^(\d+))?)?")


def _parse_poly(field: FiniteField, text: str) -> Poly:
    """The polynomial a text of the grammar names, with its coefficients
    read mod p straight into element codes.  A plain integer, the most
    common entry, costs one ``int``."""
    if not isinstance(text, str):
        raise ValueError(f"polynomial text must be a string, got {text!r}")
    compact = text.replace(" ", "")
    if compact.isdecimal():  # exactly what \d+ matches, and what int() reads
        c = int(compact) % field.p
        return _constants(field)[c] if c < 2 else Poly._raw(field, (field._elements[c],))
    if not _POLY_RE.fullmatch(compact):
        raise _refusal(text, compact)
    coeffs: dict[int, int] = {}
    for sign, digits, x, exp in _TERM_RE.findall(compact):
        if digits or x:  # not the empty match at the end
            e = _exponent(x, exp)
            c = int(digits) if digits else 1
            coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
    codes = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        codes[e] = c % field.p
    return Poly._raw(field, [field._elements[c] for c in codes])


def _exponent(x: str, exp: str) -> int:
    """A term's power of x; one above MAX_TEXT_DEGREE is refused."""
    e = (int(exp) if exp else 1) if x else 0
    if e > MAX_TEXT_DEGREE:
        raise ValueError(f"exponent {e} exceeds the text grammar's bound {MAX_TEXT_DEGREE}")
    return e


def _refusal(text: str, compact: str) -> ValueError:
    """The error for text outside the grammar: an empty text, a stray
    sign, or else the first term, reading left to right, that is not one
    or has too large an exponent (raised here)."""
    if not compact:
        return ValueError("empty polynomial text")
    pieces = re.findall(r"[+-]?[^+-]+", compact)  # signed runs, compiled only on this error path
    if "".join(pieces) != compact:
        return ValueError(f"cannot parse polynomial text {text!r}")
    for piece in pieces:
        if not _POLY_RE.fullmatch(piece):
            return ValueError(f"bad term {piece!r} in polynomial text {text!r}")
        _exponent(*_TERM_RE.match(piece).group(3, 4))
    return ValueError(f"cannot parse polynomial text {text!r}")


@functools.cache
def _coeff_text(c: FieldElement) -> str:
    """A coefficient as a t-polynomial, parenthesized when it has a t term;
    kept per element, so text is written from its coefficients' texts."""
    text = t_poly_text(c.coeffs)
    return f"({text})" if any(c.coeffs[1:]) else text


def to_text(f: Poly) -> str:
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if c._log is None:
            continue
        ct = _coeff_text(c)
        if i == 0:
            parts.append(ct)
        else:
            xp = "x" if i == 1 else f"x^{i}"
            parts.append(xp if ct == "1" else f"{ct}*{xp}")
    return "+".join(parts) or "0"


# ---------------------------------------------------------------------------
# Irreducibles and factorization


def monic_polys(field: FiniteField, degree: int) -> Iterator[Poly]:
    """All monic polynomials of the exact degree, in canonical order:
    the lower coefficients counted base q, constant coefficient fastest."""
    if degree < 0:
        return
    lead = (field.one(),)
    for digits in itertools.product(tuple(field.elements()), repeat=degree):
        yield Poly._raw(field, digits[::-1] + lead)


def is_irreducible(f: Poly) -> bool:
    """Ben-Or's test: f of degree d >= 1 is prime iff gcd(f, x^(q^j) - x)
    is constant for every j <= d/2, since a reducible f has a prime
    factor of degree j <= d/2 and that factor divides x^(q^j) - x."""
    x = h = Poly.x(f.field)
    for _ in range(f.degree // 2):
        h = pow(h, f.field.q, f)  # x^(q^j) mod f
        if poly_gcd(f, h - x).degree > 0:
            return False
    return f.degree >= 1


def monic_rank(f: Poly) -> int:
    """f's coefficient codes as one base-q number, constant coefficient
    least significant: ``monic_polys`` order, lower degrees first."""
    q, rank = f.field.q, 0
    for c in reversed(f.coeffs):
        rank = rank * q + c._code
    return rank


def monic_irreducibles(field: FiniteField, degree: int):
    """All monic irreducibles of the degree in ``monic_polys`` order: the
    primes of the line's Frobenius orbits of that length in F_{q^degree}
    (``curvepoints.enumerate_points``).  The walk scans F_{q^degree}, so
    q^degree > MAX_INSPECTION_SIZE is refused before anything is built."""
    if capped_power(field.q, degree, MAX_INSPECTION_SIZE) > MAX_INSPECTION_SIZE:
        raise ValueError(f"{field.q}^{degree} monics exceed the enumeration bound {MAX_INSPECTION_SIZE}")
    from .curvepoints import enumerate_points  # curvepoints imports this module
    from .curvering import CurveSpec

    line = CurveSpec.polyline(field)
    return tuple(place.prime for place in enumerate_points(line, degree, closed=True) if place.degree == degree)


def _multiplicity(f: Poly, prime: Poly):
    """(m, f / prime^m) for the multiplicity m of prime in f != 0."""
    mult = 0
    while True:
        quo, rem = divmod(f, prime)
        if not rem.is_zero():
            return mult, f
        f, mult = quo, mult + 1


def factor(f: Poly):
    """Factor into monic irreducibles by distinct-degree factorization.

    With every prime of degree < j divided out of rem, gcd(rem, x^(q^j) - x)
    is the product of the distinct primes of degree j dividing rem.  A
    product of degree j is one prime; a longer one is split by trial
    division against ``monic_irreducibles(field, j)``.  Once rem has
    degree < 2j it is itself prime.

    Returns (leading coefficient, [(prime, multiplicity), ...]) with the
    primes in increasing (degree, coefficient) order, so the product of
    the prime powers times the leading coefficient reassembles f.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree > FACTOR_DEGREE_BOUND:
        raise ValueError(f"degree {f.degree} exceeds factoring bound {FACTOR_DEGREE_BOUND}")
    lead = f.leading_coeff()
    rem = f.monic()
    x = h = Poly.x(f.field)  # h = x^(q^j) modulo rem
    factors, j = [], 0
    while rem.degree >= 1:
        j += 1
        if rem.degree < 2 * j:
            factors.append((rem, 1))
            break
        h = pow(h, f.field.q, rem)
        g = poly_gcd(rem, h - x)
        if g.degree < 1:
            continue
        primes = [g] if g.degree == j else [p for p in monic_irreducibles(f.field, j) if (g % p).is_zero()]
        for prime in primes:
            mult, rem = _multiplicity(rem, prime)
            factors.append((prime, mult))
    factors.sort(key=lambda fe: fe[0].sort_key())
    return lead, factors


# ---------------------------------------------------------------------------
# Primes and valuations


class PrimePoly(Record):
    """A prime of F_q(x) relative to F_q[x]: a monic irreducible
    polynomial, or the distinguished infinite place."""

    __slots__ = ("field", "poly")

    def __init__(self, field: FiniteField, poly: Optional[Poly]):
        self.field = field
        self.poly = poly

    @classmethod
    def finite(cls, poly: Poly) -> PrimePoly:
        if not poly.is_monic():
            raise ValueError("finite primes must be monic")
        if not is_irreducible(poly):
            raise ValueError(f"{to_text(poly)} is reducible")
        return cls(poly.field, poly)

    @classmethod
    def infinite(cls, field: FiniteField) -> PrimePoly:
        return cls(field, None)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    def __hash__(self):
        return hash((self.field.q, None if self.poly is None else self.poly.coeffs))

    def __repr__(self):
        return "PrimePoly(inf)" if self.is_infinite else f"PrimePoly({to_text(self.poly)!r})"


def _line_parts(r):
    """(numerator, denominator) in F_q[x] of a polynomial, or of a
    RingFraction with no y part, such as every fraction on the line."""
    if isinstance(r, Poly):
        return r, Poly.one(r.field)
    if not r.num.b.is_zero():
        raise ValueError("a fraction with a y part lives on a cubic, not on the line")
    return r.num.a, r.den


def valuation(r, p: PrimePoly) -> int:
    """v_p of a nonzero polynomial or line fraction: at a finite prime,
    its multiplicity in the numerator minus that in the denominator; at
    infinity, deg den - deg num."""
    num, den = _line_parts(r)
    if num.is_zero():
        raise ValueError("valuation of zero is undefined")
    if p.is_infinite:
        return den.degree - num.degree
    return _multiplicity(num, p.poly)[0] - _multiplicity(den, p.poly)[0]
