"""Exact arithmetic in finite fields F_q of odd characteristic.

A field is specified by an odd prime p and an extension degree k >= 1.
Elements are coefficient vectors over F_p, reduced modulo a monic
irreducible modulus m(t) of degree k (for k = 1 the modulus is t and
elements are plain residues).

The modulus chosen by ``make_extension`` is deterministic: monic
degree-k polynomials over F_p are scanned in increasing order of their
coefficient vector read as a base-p integer (constant coefficient least
significant, ``funcfield.monic_polys`` order), and the first that
``funcfield.is_irreducible`` accepts wins; an explicit modulus passes
the same test.  This keeps residue fields reproducible across runs.

Representation.  A field builds all q of its elements once, when it is
constructed, as interned ``FieldElement`` objects: the element with
coefficient vector (c_0, ..., c_{k-1}) has the code c_0 + c_1 p + ... +
c_{k-1} p^(k-1), which is its index in the canonical order.  No element
is allocated afterwards; every operation returns one of these objects.

Logarithms.  The generator g is the first element in canonical order
whose powers reach all of F_q^x, so it depends only on (p, k, modulus).
Each nonzero element a = g^l carries l = log a.  The field keeps the
table exp (n -> g^n, stored twice over so that a sum of two logs needs
no reduction) and, as in FLINT's fq_zech, the Zech logarithms
Z(n) = log(1 + g^n).  Then

    g^i * g^j = g^(i + j)
    g^i + g^j = g^(i + Z(j - i)), which is zero when 1 + g^(j - i) = 0,

and negation, inverse and powers are single lookups as well.  For odd q
the nonzero squares are the even powers of g, so the square class of a
is the parity of its log; the test suite cross-checks this against
exhaustive squaring.  The coefficient-vector arithmetic below (``_ip_*``)
only finds the generator and builds the tables.

Everything here is desk scale, because all downstream algorithms are
enumerative.  Base fields, the fields curves and forms are defined over,
have q <= MAX_FIELD_SIZE = 121; the inputs enforce that cap.  Extension
fields, built as residue fields, as point fields of a curve and as the
evaluation fields of the isometry search, have q <= MAX_INSPECTION_SIZE
= 121^2 = 14 641, and ``FiniteField`` refuses anything larger.
"""

from __future__ import annotations

import enum
import itertools
import operator
from typing import Iterator

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


# ---------------------------------------------------------------------------
# Polynomials over F_p as int tuples, used only to find the generator and
# walk its powers.  Coefficients ascending, no trailing zeros.


def _ip_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return tuple(c)


def _ip_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ip_trim(out)


def _ip_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _ip_trim(a)


def _ip_pow_mod(a, e: int, m, p):
    """a^e mod m by square and multiply, trimmed."""
    out, base = (1,), _ip_trim(a)
    while e:
        if e & 1:
            out = _ip_mod(_ip_mul(out, base, p), m, p)
        base = _ip_mod(_ip_mul(base, base, p), m, p)
        e >>= 1
    return out


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
    interned and its arithmetic on log and Zech tables."""

    __slots__ = (
        "p", "k", "q", "modulus", "_half", "_elements", "_exp", "_zech", "_embed_roots"
    )

    def __init__(self, p: int, k: int, modulus=None):
        if p > MAX_INSPECTION_SIZE:  # before the primality test, which costs sqrt(p)
            raise ValueError(f"field size {p}^{k} exceeds desk-scale bound {MAX_INSPECTION_SIZE}")
        if _prime_factors(p) != [p] or p == 2:
            raise ValueError(f"characteristic must be an odd prime, got {p}")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        q = capped_power(p, k, MAX_INSPECTION_SIZE)
        if q > MAX_INSPECTION_SIZE:
            raise ValueError(f"field size {p}^{k} exceeds desk-scale bound {MAX_INSPECTION_SIZE}")
        if modulus is None:
            modulus = _minimal_irreducible(p, k)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            from .funcfield import Poly, is_irreducible  # funcfield imports this module

            if not is_irreducible(Poly(make_extension(p, 1), modulus)):
                raise ValueError("modulus is reducible")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = modulus
        self._half = (q - 1) // 2  # log of -1
        self._embed_roots = {}
        self._build_tables()

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        vectors = [v[::-1] for v in itertools.product(range(p), repeat=k)]  # canonical order
        one = vectors[1]
        # the first generator of F_q^x in canonical order: g has order
        # q - 1 iff g^((q - 1)/l) != 1 for every prime l dividing q - 1
        cofactors = [(q - 1) // l for l in _prime_factors(q - 1)]
        g = next(
            v for v in vectors[1:]
            if all(_ip_pow_mod(v, e, self.modulus, p) != (1,) for e in cofactors)
        )
        # multiplying by g is F_p-linear: row j of its matrix holds the
        # t^j coefficients of g t^i, i < k, so each power is one product
        columns = [(_ip_mod(_ip_mul(g, vectors[p**i], p), self.modulus, p) + vectors[0])[:k] for i in range(k)]
        rows = list(zip(*columns))
        weights = [p**j for j in range(k)]
        codes, power = [], one
        for _ in range(q - 1):
            codes.append(sum(map(operator.mul, power, weights)))
            power = [sum(map(operator.mul, row, power)) % p for row in rows]
        logs = [None] * q
        for n, code in enumerate(codes):
            logs[code] = n
        self._elements = [FieldElement(self, v, n, logs[n]) for n, v in enumerate(vectors)]
        # exp and Z twice over: a sum of two logs, or a difference of two
        # (as a negative index), then needs no reduction mod q - 1
        self._exp = [self._elements[code] for code in codes] * 2
        # 1 + g^n: add one to the constant coefficient of g^n's code
        zech = [logs[code - code % p + (code + 1) % p] for code in codes]
        self._zech = zech * 2

    def zech_table(self) -> list:
        """Z(n) = log(1 + g^n), None where 1 + g^n = 0, for every n with
        -2(q - 1) <= n < 2(q - 1) as a list index.  A kernel that holds
        elements as their logs adds g^a + g^b as g^(a + Z(b - a)).
        Read only."""
        return self._zech

    def element(self, value) -> FieldElement:
        """Coerce an int (constant) or coefficient sequence into the field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return self._elements[value._code]
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

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"F{self.q}"


def _minimal_irreducible(p: int, k: int):
    """The first monic irreducible of degree k over F_p in canonical order."""
    if k == 1:
        return (0, 1)
    from .funcfield import is_irreducible, monic_polys  # funcfield imports this module

    modulus = next(f for f in monic_polys(make_extension(p, 1), k) if is_irreducible(f))
    return tuple(c.coeffs[0] for c in modulus.coeffs)


_field_cache: dict[tuple[int, int], FiniteField] = {}


def make_extension(p: int, k: int) -> FiniteField:
    """F_{p^k} with the deterministic minimal modulus, cached."""
    key = (p, k)
    if key not in _field_cache:
        _field_cache[key] = FiniteField(p, k)
    return _field_cache[key]


class FieldElement:
    """An element of a FiniteField: one of the q objects the field
    interned when it was built.

    ``coeffs`` is the coefficient vector, ``_code`` its index in the
    canonical order and ``_log`` its discrete log to the field's
    generator (None for zero).  Equality is coefficient-wise and holds
    across separately built copies of one field; arithmetic with an
    element of such a copy answers in this element's field.
    """

    __slots__ = ("field", "coeffs", "_code", "_log", "_hash")

    def __init__(self, field: FiniteField, coeffs: tuple, code: int, log):
        self.field = field
        self.coeffs = coeffs
        self._code = code
        self._log = log
        self._hash = hash((field.q, coeffs))

    def is_zero(self) -> bool:
        return self._log is None

    @property
    def log(self):
        """The discrete log to the field's generator; None for zero."""
        return self._log

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("mismatched fields")
            return self.field._elements[other._code]
        if isinstance(other, int):
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

    def __rsub__(self, other):
        return (-self) + other

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

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.element(other) / self

    def __pow__(self, e: int):
        field = self.field
        if self._log is None:
            if e < 0:
                raise ZeroDivisionError("division by zero field element")
            return field._elements[0 if e else 1]
        return field._exp[self._log * e % (field.q - 1)]

    def __eq__(self, other):
        if type(other) is FieldElement:
            return self is other or (self._code == other._code and self.field == other.field)
        if isinstance(other, int):
            return self._code == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.field.k == 1:
            return f"F{self.field.q}({self.coeffs[0]})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                terms.append(t if c == 1 else f"{c}*{t}")
        body = "+".join(terms) if terms else "0"
        return f"F{self.field.q}({body})"


class SquareClass(enum.Enum):
    """An element of the order-2 group F_q^x / (F_q^x)^2."""

    SQUARE = "square"
    NONSQUARE = "nonsquare"

    def __mul__(self, other):
        if not isinstance(other, SquareClass):
            return NotImplemented
        if self is other:
            return SquareClass.SQUARE
        return SquareClass.NONSQUARE


def is_square(a: FieldElement) -> bool:
    """Whether log a is even.  Zero is rejected: square classes live in F_q^x."""
    if a.is_zero():
        raise ValueError("square class of zero is undefined")
    return a._log % 2 == 0


def square_class(a: FieldElement) -> SquareClass:
    return SquareClass.SQUARE if is_square(a) else SquareClass.NONSQUARE


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


def smallest_root(coeffs, field: FiniteField) -> FieldElement:
    """The first element of field, in canonical order, at which the
    polynomial with these ascending coefficients (elements of field)
    vanishes."""
    for r in field.elements():
        acc = field.zero()
        for c in reversed(coeffs):
            acc = acc * r + c
        if acc.is_zero():
            return r
    raise ValueError(f"polynomial has no root in F{field.q}")


def embed(a: FieldElement, target: FiniteField) -> FieldElement:
    """Map a into an extension field along the canonical embedding.

    The embedding sends the generator of a's field to the smallest root
    of its modulus inside ``target`` (smallest in the canonical element
    order), which is cached per field pair.
    """
    src = a.field
    if src == target:
        return a
    if src.p != target.p or target.k % src.k != 0:
        raise ValueError(f"no embedding of F{src.q} into F{target.q}")
    key = (src.q, src.modulus)
    root = target._embed_roots.get(key)
    if root is None:
        root = smallest_root([target.element(c) for c in src.modulus], target)
        target._embed_roots[key] = root
    acc = target.zero()
    for c in reversed(a.coeffs):
        acc = acc * root + target.element(c)
    return acc
