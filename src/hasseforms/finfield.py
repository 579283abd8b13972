"""Exact arithmetic in finite fields F_q of odd characteristic.

A field is specified by an odd prime p and an extension degree k >= 1.
Elements are coefficient vectors over F_p, reduced modulo a monic
irreducible modulus m(t) of degree k (for k = 1 the modulus is t and
elements are plain residues).

The modulus chosen by ``make_extension`` is deterministic: monic
degree-k polynomials over F_p are scanned in increasing order of their
coefficient vector read as a base-p integer (constant coefficient least
significant, ``funcfield.monic_polys`` order), and the first that
``funcfield.is_irreducible`` accepts wins.  This keeps residue fields
reproducible across runs.

There is one field object per (p, k): ``FiniteField(p, k)`` and
``make_extension(p, k)`` both return it, building it on first use, so
fields, and the elements they intern, compare and hash by identity.
An element of F_{p^k} maps into F_{p^K} (k dividing K) through one
embedding table per field pair, which the larger field builds once
with its inverse, the ``pullback_table`` indexed by logs.

Representation.  A field builds all q of its elements once, when it is
constructed, as interned ``FieldElement`` objects: the element with
coefficient vector (c_0, ..., c_{k-1}) has the code c_0 + c_1 p + ... +
c_{k-1} p^(k-1), which is its index in the canonical order.  No element
is allocated afterwards; every operation returns one of these objects.

Logarithms.  The generator g is the first element in canonical order
whose powers reach all of F_q^x, so it depends only on (p, k).
Each nonzero element a = g^l carries l = log a.  The field keeps the
table exp (n -> g^n, stored twice over so that a sum of two logs needs
no reduction) and, as in FLINT's fq_zech, the Zech logarithms
Z(n) = log(1 + g^n).  Then

    g^i * g^j = g^(i + j)
    g^i + g^j = g^(i + Z(j - i)), which is zero when 1 + g^(j - i) = 0,

and negation, inverse and powers are single lookups as well.  For odd q
the nonzero squares are the even powers of g, so ``is_square`` reads
the square class of a off the parity of its log; the test suite
cross-checks this against exhaustive squaring.  A field is built with
arithmetic the package already has: generator candidates are tested by
``pow`` on ints (k = 1) or on ``funcfield.Poly`` mod m (k >= 2), k
``Poly`` products give g t^j mod m, and from those the map "multiply
by g" is written down once on element codes and walked from 1.

Everything here is desk scale, because all downstream algorithms are
enumerative.  Base fields, the fields curves and forms are defined over,
have q <= MAX_FIELD_SIZE = 121; the inputs enforce that cap.  Extension
fields, built as residue fields, as point fields of a curve and as the
evaluation fields of the isometry search, have q <= MAX_INSPECTION_SIZE
= 121^2 = 14 641, and ``FiniteField`` refuses anything larger.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator

MAX_FIELD_SIZE = 121
MAX_INSPECTION_SIZE = MAX_FIELD_SIZE**2


def capped_power(base: int, exp: int, cap: int) -> int:
    """base**exp for base >= 2, or cap + 1 once the power exceeds cap;
    at most log_base(cap) + 1 multiplications, however large exp is."""
    out = 1
    for _ in range(exp):
        out *= base
        if out > cap:
            return cap + 1
    return out


def square_and_multiply(start, base, e: int, mul=operator.mul):
    """start * base^e by square and multiply (von zur Gathen and Gerhard,
    *Modern Computer Algebra*, ch. 4), in any monoid whose product is
    ``mul``, which may reduce its result.  The package's one such loop."""
    if e < 0:
        raise ValueError(f"negative power {e}")
    while e:
        if e & 1:
            start = mul(start, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return start


class RingOps:
    """Subtraction derived from ``_coerce``, ``+`` and unary ``-``, for
    the arithmetic types: ``FieldElement``, ``Poly``, ``RingElement`` and
    ``RingFraction``.  All four use ``__rsub__``; only ``RingFraction``
    uses ``__sub__``, as the other three write theirs out in one pass."""

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other


class FieldOps(RingOps):
    """Division derived from ``*`` and ``inverse``, for the two types that
    have an inverse: ``FieldElement`` and ``RingFraction``."""

    __slots__ = ()

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()


def t_poly_text(coeffs) -> str:
    """The t-polynomial with these ascending int coefficients as text,
    lowest degree first, e.g. "1+2*t+t^2"; "0" if all are zero."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            t = "t" if i == 1 else f"t^{i}"
            terms.append(t if c == 1 else f"{c}*{t}")
    return "+".join(terms) or "0"


def _prime_factors(n: int):
    """The distinct primes dividing n, increasing; n is prime exactly
    when this is [n]."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


class FiniteField:
    """The field F_{p^k} presented as F_p[t]/(m), with its elements
    interned and its arithmetic on log and Zech tables.  The constructor
    returns the one object for (p, k), so a field is equal only to
    itself, and a copy or unpickled field is that object; a refused
    (p, k) leaves nothing cached."""

    __slots__ = (
        "p", "k", "q", "modulus", "_half", "_elements", "_exp", "_zech", "_embeddings", "_pullbacks"
    )

    def __new__(cls, p: int, k: int):
        field = _field_cache.get((p, k))
        if field is not None:
            return field
        if p > MAX_INSPECTION_SIZE:  # before the primality test, which costs sqrt(p)
            raise ValueError(f"field size {p}^{k} exceeds desk-scale bound {MAX_INSPECTION_SIZE}")
        if _prime_factors(p) != [p] or p == 2:
            raise ValueError(f"characteristic must be an odd prime, got {p}")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        q = capped_power(p, k, MAX_INSPECTION_SIZE)
        if q > MAX_INSPECTION_SIZE:
            raise ValueError(f"field size {p}^{k} exceeds desk-scale bound {MAX_INSPECTION_SIZE}")
        cofactors = [(q - 1) // l for l in _prime_factors(q - 1)]
        modulus, columns = _modulus_and_columns(p, k, cofactors)
        # multiplying by g is F_p-linear: digit i of g x is the sum over j
        # of (g t^j)_i x_j mod p, so that digit of the image of every code
        # takes one list comprehension per input digit
        step, weight = [0] * q, 1
        for i in range(k):
            digit = [0]
            for column in columns:
                entry = column[i]
                digit = [d + c * entry for c in range(p) for d in digit]
            step = [s + d % p * weight for s, d in zip(step, digit)]
            weight *= p
        codes, code = [], 1  # the powers of g: the walk of that map from 1
        for _ in range(q - 1):
            codes.append(code)
            code = step[code]
        logs = [None] * q
        for n, code in enumerate(codes):
            logs[code] = n
        field = super().__new__(cls)
        field.p = p
        field.k = k
        field.q = q
        field.modulus = modulus
        field._half = (q - 1) // 2  # log of -1
        field._embeddings = {}  # source field -> image of each of its elements
        field._pullbacks = {}  # source field -> its element at each log of the image
        vectors = [v[::-1] for v in itertools.product(range(p), repeat=k)]  # canonical order
        field._elements = [FieldElement(field, v, n, logs[n]) for n, v in enumerate(vectors)]
        # exp and Z twice over: a sum of two logs, or a difference of two
        # (as a negative index), then needs no reduction mod q - 1
        field._exp = [field._elements[code] for code in codes] * 2
        # 1 + g^n: add one to the constant coefficient of g^n's code
        zech = [logs[code - code % p + (code + 1) % p] for code in codes]
        field._zech = zech * 2
        _field_cache[p, k] = field
        return field

    def __reduce__(self):
        return FiniteField, (self.p, self.k)

    def element(self, value) -> FieldElement:
        """Coerce an int (constant) or coefficient sequence into the field.
        An int, or a list holding one int, is one table lookup."""
        kind = type(value)
        if kind is int:
            return self._elements[value % self.p]
        if kind is list and len(value) == 1 and type(value[0]) is int:
            return self._elements[value[0] % self.p]
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return self._elements[value % self.p]
        coeffs = list(value)
        if len(coeffs) > self.k:
            raise ValueError("coefficient vector longer than extension degree")
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + int(c) % self.p
        return self._elements[code]

    def zero(self) -> FieldElement:
        return self._elements[0]

    def one(self) -> FieldElement:
        return self._elements[1]

    def gen(self) -> FieldElement:
        """The class of t (only meaningful for k >= 2)."""
        if self.k == 1:
            return self.zero()
        return self.element([0, 1])

    def elements(self) -> Iterator[FieldElement]:
        """All q elements in canonical order (coefficient vectors counting
        base p, constant coefficient fastest)."""
        return iter(self._elements)

    def nonzero_elements(self) -> Iterator[FieldElement]:
        return iter(self._elements[1:])

    def __repr__(self):
        return f"F{self.q}"


def _modulus_and_columns(p: int, k: int, cofactors):
    """The modulus m of F_{p^k}, the first monic irreducible of degree k
    over F_p in canonical order, and the coefficient codes of g t^j mod m
    for j < k.  The generator g is the first element in canonical order
    of order q - 1: g^e != 1 for every cofactor e = (q - 1)/l."""
    if k == 1:
        g = next(c for c in range(1, p) if all(pow(c, e, p) != 1 for e in cofactors))
        return (0, 1), [[g]]
    from .funcfield import Poly, is_irreducible, monic_polys  # funcfield imports this module

    base = make_extension(p, 1)
    m = next(f for f in monic_polys(base, k) if is_irreducible(f))
    one = Poly.one(base)
    candidates = (Poly._raw(base, v[::-1]) for v in itertools.product(base._elements, repeat=k))
    # the constants lie in F_p^x, whose order p - 1 is less than q - 1
    g = next(f for f in candidates if f.degree > 0 and all(pow(f, e, m) != one for e in cofactors))
    columns, t = [], Poly.x(base)
    for _ in range(k):
        columns.append([c._code for c in g.coeffs] + [0] * (k - len(g.coeffs)))
        g = g * t % m
    return tuple(c._code for c in m.coeffs), columns


_field_cache: dict[tuple[int, int], FiniteField] = {}


def make_extension(p: int, k: int) -> FiniteField:
    """F_{p^k} with the deterministic minimal modulus: the one field
    object for (p, k), the same one ``FiniteField(p, k)`` returns."""
    return FiniteField(p, k)


class FieldElement(FieldOps):
    """An element of a FiniteField: one of the q objects the field
    interned when it was built.

    ``coeffs`` is the coefficient vector, ``_code`` its index in the
    canonical order and ``_log`` its discrete log to the field's
    generator (None for zero).  As each (p, k) has one field and each
    field one object per element, two elements are equal exactly when
    they are the same object, and an element hashes by identity, as
    fields and curves do; an int equals the constant it reduces to.
    Arithmetic with an element of another field raises ValueError.
    ``__sub__`` is written out on the logs, for speed.
    """

    __slots__ = ("field", "coeffs", "_code", "_log")

    def __init__(self, field: FiniteField, coeffs: tuple, code: int, log):
        self.field = field
        self.coeffs = coeffs
        self._code = code
        self._log = log

    def __reduce__(self):
        return self.field.element, (self.coeffs,)

    def is_zero(self) -> bool:
        return self._log is None

    @property
    def log(self):
        """The discrete log to the field's generator; None for zero."""
        return self._log

    def _coerce(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        la = self._log
        if la is None:
            return other
        lb = other._log
        if lb is None:
            return self
        field = self.field
        z = field._zech[lb - la]  # g^la + g^lb = g^la (1 + g^(lb - la))
        if z is None:
            return field._elements[0]
        return field._exp[la + z]

    __radd__ = __add__

    def __neg__(self):
        if self._log is None:
            return self
        return self.field._exp[self._log + self.field._half]

    def __sub__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        field = self.field
        lb = other._log
        if lb is None:
            return self
        lb += field._half  # the log of -other
        la = self._log
        if la is None:
            return field._exp[lb]
        z = field._zech[lb - la]
        if z is None:
            return field._elements[0]
        return field._exp[la + z]

    def __mul__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        la, lb = self._log, other._log
        if la is None or lb is None:
            return self.field._elements[0]
        return self.field._exp[la + lb]

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if self._log is None:
            raise ZeroDivisionError("division by zero field element")
        return self.field._exp[self.field.q - 1 - self._log]

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other / self

    def __pow__(self, e: int):
        field = self.field
        if self._log is None:
            if e < 0:
                raise ZeroDivisionError("division by zero field element")
            return field._elements[0 if e else 1]
        return field._exp[self._log * e % (field.q - 1)]

    def __eq__(self, other):
        if type(other) is FieldElement:
            return self is other
        if isinstance(other, int):
            return self._code == other % self.field.p
        return NotImplemented

    __hash__ = object.__hash__  # interned: the same object exactly when equal

    def __repr__(self):
        return f"F{self.field.q}({t_poly_text(self.coeffs)})"


def is_square(a: FieldElement) -> bool:
    """Whether log a is even.  Zero is rejected: square classes live in F_q^x."""
    if a.is_zero():
        raise ValueError("square class of zero is undefined")
    return a._log % 2 == 0


def sqrt(a: FieldElement) -> FieldElement:
    """The canonically smallest square root: of the two roots
    ±g^(log a / 2), the one with the smaller coefficient tuple."""
    if a.is_zero():
        return a
    if a._log % 2:
        raise ValueError(f"{a!r} is not a square")
    field = a.field
    root = field._exp[a._log // 2]
    other = field._exp[a._log // 2 + field._half]
    return root if root.coeffs < other.coeffs else other


def _horner(coeffs, x: FieldElement) -> FieldElement:
    """The polynomial with these ascending coefficients (ints, or elements
    of x's field) at x, by Horner's rule."""
    acc = x.field.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def smallest_root(coeffs, field: FiniteField) -> FieldElement:
    """The first element of field, in canonical order, at which the
    polynomial with these ascending coefficients (elements of field)
    vanishes."""
    for r in field.elements():
        if _horner(coeffs, r).is_zero():
            return r
    raise ValueError(f"polynomial has no root in F{field.q}")


def embed(a: FieldElement, target: FiniteField) -> FieldElement:
    """Map a into an extension field along the canonical embedding.

    The embedding sends the class of t in a's field to the smallest root
    of its modulus inside ``target`` (smallest in the canonical element
    order).  ``target`` keeps one table per source field, the image of
    each source element by Horner's rule on that root, built on first
    use; every later call is one lookup.
    """
    src = a.field
    if src is target:
        return a
    table = target._embeddings.get(src)
    if table is None:
        if src.p != target.p or target.k % src.k != 0:
            raise ValueError(f"no embedding of F{src.q} into F{target.q}")
        root = smallest_root([target.element(c) for c in src.modulus], target)
        table = [_horner(b.coeffs, root) for b in src.elements()]
        target._embeddings[src] = table
    return table[a._code]


def pullback_table(field: FiniteField, base: FiniteField) -> list:
    """The element of ``base`` that ``embed`` maps to g^n, indexed by the
    log n (None off the image): one table per field pair, which the field
    keeps beside the embedding table, so pulling an element back is one
    lookup by its log."""
    table = field._pullbacks.get(base)
    if table is None:
        table = [None] * (field.q - 1)
        for b in base.nonzero_elements():
            table[embed(b, field)._log] = b
        field._pullbacks[base] = table
    return table
