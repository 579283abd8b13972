"""Univariate polynomials over F_q, their text grammar and primality.

Polynomials are coefficient tuples in ascending order with no trailing
zeros; the zero polynomial is the empty tuple and reports degree -1 as
its sentinel.  There is no separate rational-function type: an element
of F_q(x) is a line ``curvering.RingFraction``, a numerator over a monic
denominator coprime to it.

Primality reads the Frobenius powers x^(q^j) mod f, computed by
``pow(h, q, f)``, with no extension field and no candidate divisors (von
zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 14):
``is_irreducible`` is Ben-Or's test.

The primes of the line (``PrimePoly``, ``monic_irreducibles``,
``factor``, ``valuation``) live in ``local``, which no CLI command
loads.  The three that perfbench's tracer wraps here
(``monic_irreducibles``, ``factor``, ``valuation``) are also reached
through this module, which imports ``local`` on first use
(``__getattr__``).

Text grammar for polynomials: integer coefficients, variable x,
caret powers, e.g. ``x^3+2*x+3``; coefficients are read mod p.  Over
F_{p^k} = F_p[t]/(m) a coefficient may also be a t-polynomial in
parentheses, as ``to_text`` writes it, e.g. ``(1+2*t)*x^2+(t)``.  Spaces
are dropped, and the text splits into signed runs, a parenthesized group
kept whole, each a term of ``_TERM_RE``; the first run, reading left to
right, that is no term or has an exponent above MAX_TEXT_DEGREE is
refused, before anything is allocated; so is one whose t-polynomial has
degree k or more.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Iterator

from . import _lazy_names
from .finfield import FieldElement, FiniteField, RingOps, _horner, embed, make_extension, square_and_multiply, t_poly_text

MAX_TEXT_DEGREE = 256  # largest exponent the text grammar accepts

__getattr__ = _lazy_names(
    globals(),
    dict.fromkeys(("monic_irreducibles", "factor", "valuation"), "local"),
)


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
        """The polynomial a text of the grammar names, with its coefficients
        read mod p, a t-polynomial as a text over F_p in t, whose run is
        refused when its degree in t is k or more.  A plain
        integer, the most common entry, costs one ``int``; any other text
        is checked and read in one pass over its signed runs.  ValueError
        names an empty text, a stray or doubled sign, or the first run that
        is no term."""
        if not isinstance(text, str):
            raise ValueError(f"polynomial text must be a string, got {text!r}")
        compact = text.replace(" ", "")
        if compact.isdecimal():  # exactly what \d+ matches, and what int() reads
            c = int(compact) % field.p
            return _constants(field)[c] if c < 2 else Poly._raw(field, (field._elements[c],))
        runs = _RUN_RE.findall(compact)  # signed runs, each of which must be one term
        if not runs or "".join(runs) != compact:
            raise ValueError(f"cannot parse polynomial text {text!r}" if compact else "empty polynomial text")
        coeffs: dict[int, int | FieldElement] = {}  # an int is read mod p at the end
        for run in runs:
            if (term := _TERM_RE.fullmatch(run)) is None:
                raise ValueError(f"bad term {run!r} in polynomial text {text!r}")
            sign, c, x, exp = term.groups()
            e = _exponent(x, exp)
            if c[:1] == "(":
                t = Poly.from_text(make_extension(field.p, 1), c[1:-1].replace("t", "x")).coeffs
                if len(t) > field.k:  # no element of F_{p^k} has t-degree k
                    raise ValueError(f"bad term {run!r} in polynomial text {text!r}")
                c = field.element([d._code for d in t])
            else:
                c = int(c) if c else 1
            coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
        return Poly._raw(field, [field.element(coeffs.get(e, 0)) for e in range(max(coeffs) + 1)])

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
        if isinstance(other, Poly):  # operands over this field take the fast path
            raise ValueError("mismatched base fields")
        if isinstance(other, (int, FieldElement)):
            return Poly.constant(self.field, other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not Poly or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
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
        if isinstance(other, (int, FieldElement)):  # the constant it names
            return len(self.coeffs) <= 1 and self.constant_value() == other
        return False  # a polynomial over another field, or no polynomial

    def __hash__(self):
        return hash(self.coeffs)

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


# a signed run of a polynomial text, a parenthesized group kept whole
_RUN_RE = re.compile(r"[+-]?(?:[^+\-(]|\([^()]*\))+")
# a term of ``t_poly_text``: a coefficient, t to a power, or both
_T_TERM = r"(?:\d+(?:\*?t(?:\^\d+)?)?|\*?t(?:\^\d+)?)"
# a term: an optional sign, then a coefficient, x to a power, or both; a
# coefficient is digits or, over F_{p^k}, a parenthesized t-polynomial
_TERM_RE = re.compile(rf"([+-]?)(\d*|\({_T_TERM}(?:\+{_T_TERM})*\))(?:\*?(x)(?:\^(\d+))?)?")


def _exponent(x: str, exp: str) -> int:
    """A term's power of x; one above MAX_TEXT_DEGREE is refused."""
    e = (int(exp) if exp else 1) if x else 0
    if e > MAX_TEXT_DEGREE:
        raise ValueError(f"exponent {e} exceeds the text grammar's bound {MAX_TEXT_DEGREE}")
    return e


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
# Monic polynomials and primality


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
