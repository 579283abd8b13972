"""Exact arithmetic in finite fields F_q of odd characteristic.

A field is specified by an odd prime p and an extension degree k >= 1.
Elements are coefficient vectors over F_p, reduced modulo a monic
irreducible modulus m(t) of degree k (for k = 1 the modulus is t and
elements are plain residues).

The modulus chosen by ``make_extension`` is deterministic: monic
degree-k polynomials over F_p are scanned in increasing order of their
coefficient vector read as a base-p integer (constant coefficient least
significant), and the first irreducible one wins.  This keeps residue
fields reproducible across runs.

For odd q the nonzero squares form an index-2 subgroup of the unit
group; membership is decided by the Euler criterion a^((q-1)/2) = 1,
which the test suite cross-checks against exhaustive squaring.

Everything here is desk scale: q is capped at MAX_FIELD_SIZE because
all downstream algorithms are enumerative.
"""

from __future__ import annotations

import enum
from typing import Iterator

MAX_FIELD_SIZE = 121


def capped_power(base: int, exp: int, cap: int) -> int:
    """base**exp for base >= 2, or cap + 1 once the power exceeds cap;
    at most log_base(cap) + 1 multiplications, however large exp is."""
    out = 1
    for _ in range(exp):
        out *= base
        if out > cap:
            return cap + 1
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Polynomials over F_p as int tuples, used only for modulus bookkeeping.
# Coefficients ascending, no trailing zeros.


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


def _ip_is_irreducible(m, p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(m)/2."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for n in range(p**d):
            div = _divisor_from_index(n, d, p)
            if _ip_mod(m, div, p) == ():
                return False
    return True


def _divisor_from_index(n: int, degree: int, p: int):
    coeffs = []
    for _ in range(degree):
        n, r = divmod(n, p)
        coeffs.append(r)
    coeffs.append(1)
    return tuple(coeffs)


class FiniteField:
    """The field F_{p^k} presented as F_p[t]/(m)."""

    __slots__ = ("p", "k", "q", "modulus", "_sqrt_table", "_embed_roots", "_inverses")

    def __init__(self, p: int, k: int, modulus=None):
        if p > MAX_FIELD_SIZE:  # before the primality test, which costs sqrt(p)
            raise ValueError(f"field size {p}^{k} exceeds desk-scale bound {MAX_FIELD_SIZE}")
        if not _is_prime(p) or p == 2:
            raise ValueError(f"characteristic must be an odd prime, got {p}")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        q = capped_power(p, k, MAX_FIELD_SIZE)
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {p}^{k} exceeds desk-scale bound {MAX_FIELD_SIZE}")
        if modulus is None:
            modulus = _minimal_irreducible(p, k)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if k > 1 and not _ip_is_irreducible(modulus, p):
            raise ValueError("modulus is reducible")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = modulus
        self._sqrt_table = None
        self._embed_roots = {}
        self._inverses = {}  # nonzero coeffs -> inverse, at most q - 1 entries

    def element(self, value) -> FieldElement:
        """Coerce an int (constant) or coefficient sequence into the field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coeffs = [value % self.p] + [0] * (self.k - 1)
        else:
            coeffs = list(value)
            if len(coeffs) > self.k:
                raise ValueError("coefficient vector longer than extension degree")
            coeffs = [int(c) % self.p for c in coeffs]
            coeffs += [0] * (self.k - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> FieldElement:
        return self.element(0)

    def one(self) -> FieldElement:
        return self.element(1)

    def gen(self) -> FieldElement:
        """The class of t (only meaningful for k >= 2)."""
        if self.k == 1:
            return self.zero()
        return self.element([0, 1])

    def elements(self) -> Iterator[FieldElement]:
        """All q elements in canonical order (coefficient vectors counting
        base p, constant coefficient fastest)."""
        for n in range(self.q):
            coeffs = []
            m = n
            for _ in range(self.k):
                m, r = divmod(m, self.p)
                coeffs.append(r)
            yield FieldElement(self, tuple(coeffs))

    def nonzero_elements(self) -> Iterator[FieldElement]:
        for a in self.elements():
            if not a.is_zero():
                yield a

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
    if k == 1:
        return (0, 1)
    for n in range(p**k):
        cand = _divisor_from_index(n, k, p)
        if _ip_is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible modulus found")  # unreachable


_field_cache: dict[tuple[int, int], FiniteField] = {}


def make_extension(p: int, k: int) -> FiniteField:
    """F_{p^k} with the deterministic minimal modulus, cached."""
    key = (p, k)
    if key not in _field_cache:
        _field_cache[key] = FiniteField(p, k)
    return _field_cache[key]


class FieldElement:
    """An element of a FiniteField; immutable, equality coefficient-wise."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("mismatched fields")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        field = self.field
        p = field.p
        if field.k == 1:
            return FieldElement(field, ((self.coeffs[0] * other.coeffs[0]) % p,))
        prod = _ip_mul(self.coeffs, other.coeffs, p)
        red = _ip_mod(prod, field.modulus, p)
        red = red + (0,) * (field.k - len(red))
        return FieldElement(field, red)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        """a^(q-2), computed once per element and field; zero raises and
        is never cached."""
        inverses = self.field._inverses
        inv = inverses.get(self.coeffs)
        if inv is None:
            if self.is_zero():
                raise ZeroDivisionError("division by zero field element")
            inv = inverses[self.coeffs] = self ** (self.field.q - 2)
        return inv

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.element(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if type(other) is FieldElement:
            return self.coeffs == other.coeffs and self.field == other.field
        if isinstance(other, int):
            return self.coeffs == self.field.element(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

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
    """Euler criterion.  Zero is rejected: square classes live in F_q^x."""
    if a.is_zero():
        raise ValueError("square class of zero is undefined")
    return a ** ((a.field.q - 1) // 2) == a.field.one()


def square_class(a: FieldElement) -> SquareClass:
    return SquareClass.SQUARE if is_square(a) else SquareClass.NONSQUARE


def sqrt(a: FieldElement) -> FieldElement:
    """The canonically smallest square root, found by exhaustive search."""
    field = a.field
    if field._sqrt_table is None:
        table = {}
        for e in field.elements():
            sq = e * e
            cur = table.get(sq.coeffs)
            if cur is None or e.coeffs < cur.coeffs:
                table[sq.coeffs] = e
        field._sqrt_table = table
    root = field._sqrt_table.get(a.coeffs)
    if root is None:
        raise ValueError(f"{a!r} is not a square")
    return root


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
        mod = src.modulus
        for r in target.elements():
            acc = target.zero()
            for c in reversed(mod):
                acc = acc * r + target.element(c)
            if acc.is_zero():
                root = r
                break
        if root is None:
            raise AssertionError("modulus has no root in the extension")  # unreachable
        target._embed_roots[key] = root
    acc = target.zero()
    for c in reversed(a.coeffs):
        acc = acc * root + target.element(c)
    return acc
