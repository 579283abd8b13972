"""Coordinate rings of affine curves: F_q[x] and F_q[x,y]/(y^2 - x^3 - ax - b).

These are the rings of functions regular away from the distinguished
infinite point, for the affine line and for a Weierstrass cubic with its
point at infinity removed.  Ring elements are kept in the canonical
A(x) + B(x)*y shape, with every occurrence of y^2 rewritten through the
curve equation, so equality is pairwise polynomial equality.

Fractions are rationalized by conjugate multiplication, a + b*y into
a - b*y, which forces denominators into F_q[x]; with the denominator
monic and coprime to the content of the numerator this representation
is unique, so fraction equality is structural too.  Divisibility and
valuation questions thereby reduce to plain polynomial arithmetic.  An
integral entry carries den = 1 with no gcd run.  A matrix of fractions
clears its denominators once (``_cleared``): its determinant, like a
witness identity (genus.witness_identity), is taken over the ring with
one common denominator, and no determinant multiplies fractions.

Singular Weierstrass cubics (discriminant zero) are accepted but the
smoothness flag is carried on the curve and checked by the consumers
that require it; the point-counting and congruence machinery must keep
working on singular inputs.

Units: a + b*y is a unit iff its norm a^2 - b^2*(x^3+ax+b) is a nonzero
constant, which for a monic cubic happens exactly when the element is a
nonzero constant of F_q.  ``is_unit`` computes both characterizations
and insists they agree.  Curves, like fields, are interned and live for
the process (``CurveSpec``), so operands share a curve by identity.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .finfield import FieldElement, FieldOps, FiniteField, RingOps, square_and_multiply
from .funcfield import Poly, _coeff_text, poly_gcd, to_text

POLYLINE = "polyline"
WEIERSTRASS = "weierstrass"
MAX_DET_COST = 120_000_000  # the largest estimated cost ``det`` takes
Y_PART_COST = 5  # the estimate's weight for a matrix with a y part


class CurveSpec:
    """The base geometry: the affine line, or an affine Weierstrass cubic.
    The constructor, ``polyline`` and ``weierstrass`` return the one
    object for (kind, field, a, b), with a and b coerced into the field,
    building it on first use; so a curve is equal only to itself, and
    its cubic, smoothness, point scan and shared constant entries are
    made once per process.  The line takes no coefficients, so each
    field has one line.  A refused curve leaves nothing cached."""

    __slots__ = ("kind", "field", "a", "b", "_cubic", "_smooth", "_scan", "_entries")

    def __new__(cls, kind: str, field: FiniteField, a=None, b=None):
        if kind not in (POLYLINE, WEIERSTRASS):
            raise ValueError(f"unknown curve kind {kind!r}")
        if kind == WEIERSTRASS and (a is None or b is None):
            raise ValueError("weierstrass curves need coefficients a and b")
        if kind == POLYLINE and (a is not None or b is not None):
            raise ValueError("the affine line takes no coefficients")
        key = (kind, field, None if a is None else field.element(a), None if b is None else field.element(b))
        curve = _curves.get(key)
        if curve is None:
            curve = _curves[key] = super().__new__(cls)
            curve.kind, curve.field, curve.a, curve.b = key
            # made on first use: the cubic, the discriminant test and picard._count_scan's (affine count, root) pair
            curve._cubic = curve._smooth = curve._scan = None
            curve._entries = {}  # constant entries c/1 by c, shared and never changed
        return curve

    def __reduce__(self):
        return CurveSpec, (self.kind, self.field, self.a, self.b)

    @classmethod
    def polyline(cls, field: FiniteField) -> CurveSpec:
        """The affine line over field."""
        return cls(POLYLINE, field)

    @classmethod
    def weierstrass(cls, field: FiniteField, a, b) -> CurveSpec:
        return cls(WEIERSTRASS, field, a, b)

    @property
    def is_polyline(self) -> bool:
        return self.kind == POLYLINE

    @property
    def discriminant(self) -> FieldElement:
        """-4a^3 - 27b^2, the cubic discriminant; zero means singular."""
        if self.is_polyline:
            raise ValueError("the affine line has no discriminant")
        return self.field.element(-4) * self.a**3 + self.field.element(-27) * self.b * self.b

    @property
    def is_smooth(self) -> bool:
        if self._smooth is None:
            self._smooth = self.is_polyline or not self.discriminant.is_zero()
        return self._smooth

    def cubic(self) -> Poly:
        """x^3 + a*x + b, the right-hand side of the curve equation."""
        if self.is_polyline:
            raise ValueError("the affine line has no cubic")
        if self._cubic is None:
            self._cubic = Poly(self.field, [self.b, self.a, self.field.zero(), self.field.one()])
        return self._cubic

    def __repr__(self):
        if self.is_polyline:
            return f"CurveSpec(line/F{self.field.q})"
        return f"CurveSpec(y^2=x^3+{_coeff_text(self.a)}*x+{_coeff_text(self.b)}/F{self.field.q})"


_curves: dict[tuple, CurveSpec] = {}


class RingElement(RingOps):
    """A(x) + B(x)*y in the coordinate ring (B identically 0 on the line)."""

    __slots__ = ("curve", "a", "b")

    def __init__(self, curve: CurveSpec, a: Poly, b: Poly | None = None):
        if b is None:
            b = Poly.zero(curve.field)
        if a.field is not curve.field or b.field is not curve.field:
            raise ValueError("polynomial parts must live over the curve's field")
        if curve.is_polyline and not b.is_zero():
            raise ValueError("the affine line has no y coordinate")
        self.curve = curve
        self.a = a
        self.b = b

    @classmethod
    def _raw(cls, curve, a, b):
        # internal: parts already validated polynomials over curve.field
        elem = object.__new__(cls)
        elem.curve = curve
        elem.a = a
        elem.b = b
        return elem

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, curve) -> RingElement:
        """The curve's shared 0, the numerator of its shared 0/1."""
        return _coerce_entry(curve, 0).num

    @classmethod
    def one(cls, curve) -> RingElement:
        """The curve's shared 1, the numerator of its shared 1/1."""
        return _coerce_entry(curve, 1).num

    @classmethod
    def constant(cls, curve, c) -> RingElement:
        """The curve's shared c, for anything ``field.element`` takes."""
        return _coerce_entry(curve, curve.field.element(c)).num

    @classmethod
    def x(cls, curve) -> RingElement:
        return cls(curve, Poly.x(curve.field))

    @classmethod
    def y(cls, curve) -> RingElement:
        return cls(curve, Poly.zero(curve.field), Poly.one(curve.field))

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, FieldElement, Poly, RingElement)):
            return _ring_entry(self.curve, other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not RingElement or other.curve is not self.curve:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return RingElement._raw(self.curve, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return RingElement._raw(self.curve, -self.a, -self.b)

    def __sub__(self, other):
        if type(other) is not RingElement or other.curve is not self.curve:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return RingElement._raw(self.curve, self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        if type(other) is not RingElement or other.curve is not self.curve:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if not (b1.coeffs or b2.coeffs):  # no y part: the A parts only
            return RingElement._raw(self.curve, a1 * a2, b1)
        a_part = a1 * a2
        if b1.coeffs and b2.coeffs:
            a_part = a_part + b1 * b2 * self.curve.cubic()  # y^2 rewritten
        return RingElement._raw(self.curve, a_part, a1 * b2 + a2 * b1)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return square_and_multiply(RingElement.one(self.curve), self, e)

    def conj(self) -> RingElement:
        """The quadratic-ring conjugate a + b*y -> a - b*y."""
        return RingElement(self.curve, self.a, -self.b)

    def norm(self) -> Poly:
        """N(u) = u * conj(u) = A^2 - B^2 (x^3+ax+b), in F_q[x]."""
        if self.b.is_zero():  # the line's every element
            return self.a * self.a
        return self.a * self.a - self.b * self.b * self.curve.cubic()

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a.coeffs or self.b.coeffs)

    def is_constant(self) -> bool:
        return self.a.is_constant() and self.b.is_zero()

    def constant_value(self) -> FieldElement:
        if not self.is_constant():
            raise ValueError("ring element is not constant")
        return self.a.constant_value()

    def is_unit(self) -> bool:
        """Unit test; checks 'nonzero constant' against 'constant norm'
        and insists the two characterizations agree."""
        structural = self.is_constant() and not self.is_zero()
        n = self.norm()
        by_norm = n.is_constant() and not n.is_zero()
        if structural != by_norm:
            raise AssertionError("unit characterizations disagree")
        return structural

    def evaluate(self, x0: FieldElement, y0: FieldElement | None = None) -> FieldElement:
        """Value at a point; y0 is required off the affine line."""
        if self.b.is_zero():  # the line's every element
            return self.a.evaluate(x0)
        if y0 is None:
            raise ValueError("evaluation on a curve needs a y coordinate")
        return self.a.evaluate(x0) + self.b.evaluate(x0) * y0

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not RingElement or other.curve is not self.curve:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((hash(self.a), hash(self.b)))

    def __repr__(self):
        if self.b.is_zero():
            return f"RingElement({to_text(self.a)!r})"
        return f"RingElement({to_text(self.a)!r} + ({to_text(self.b)!r})*y)"


class RingFraction(FieldOps):
    """num / den with num a RingElement and den monic in F_q[x]."""

    __slots__ = ("curve", "num", "den")

    def __init__(self, curve: CurveSpec, num: RingElement, den: Poly | None = None):
        if den is None:
            den = Poly.one(curve.field)
        if num.curve is not curve or den.field is not curve.field:
            raise ValueError("mismatched curves")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = _reduce_fraction(num, den)
        self.curve = curve
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, curve, num, den):
        # internal: num/den already in lowest terms, den monic
        frac = object.__new__(cls)
        frac.curve = curve
        frac.num = num
        frac.den = den
        return frac

    @classmethod
    def from_ring(cls, elem: RingElement) -> RingFraction:
        """elem / 1.  A denominator of 1 is already in lowest terms, so an
        integral entry carries den = 1 (the field's shared Poly.one) and
        is built without a gcd or the reduction ``__init__`` runs."""
        return cls._raw(elem.curve, elem, Poly.one(elem.curve.field))

    @classmethod
    def make(cls, num: RingElement, den) -> RingFraction:
        """Build num/den where den may itself involve y; conjugate
        multiplication rationalizes the denominator into F_q[x]."""
        curve = num.curve
        if isinstance(den, (int, FieldElement)):
            den = Poly.constant(curve.field, den)
        if isinstance(den, Poly):
            return cls(curve, num, den)
        if isinstance(den, RingElement):  # a zero den has norm 0, which __init__ refuses
            return cls(curve, num * den.conj(), den.norm())
        raise TypeError(f"cannot use {den!r} as a denominator")

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (RingFraction, RingElement, Poly, int, FieldElement)):
            return _coerce_entry(self.curve, other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not RingFraction or other.curve is not self.curve:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        num = self.num * other.den + other.num * self.den
        return RingFraction(self.curve, num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RingFraction._raw(self.curve, -self.num, self.den)  # in lowest terms as self is

    def __mul__(self, other):
        if type(other) is not RingFraction or other.curve is not self.curve:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return RingFraction(self.curve, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> RingFraction:
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero")
        # 1 / (n/d) = d * conj(n) / N(n)
        return RingFraction(self.curve, self.num.conj() * self.den, self.num.norm())

    # -- structure ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_integral(self) -> bool:
        return self.den.degree == 0

    def as_ring_element(self) -> RingElement:
        if not self.is_integral():
            raise ValueError("fraction has a nontrivial denominator")
        return self.num

    def __eq__(self, other):
        if type(other) is not RingFraction or other.curve is not self.curve:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((hash(self.num), hash(self.den)))

    def __repr__(self):
        if self.is_integral():
            return f"RingFraction({self.num!r})"
        return f"RingFraction({self.num!r} / {to_text(self.den)!r})"


def _reduce_fraction(num: RingElement, den: Poly):
    """num/den in lowest terms with den monic.  A constant denominator,
    or a nonzero constant numerator, shares no factor with the other
    part, so only a fraction with both of degree >= 1 pays for the gcd;
    the rest is scaling by the inverse of den's leading coefficient."""
    if num.is_zero():
        return num, Poly.one(den.field)
    if den.degree >= 1 and not num.is_constant():
        g = poly_gcd(poly_gcd(num.a, num.b) if num.b.coeffs else num.a, den)
        if g.degree >= 1:
            num = RingElement(num.curve, num.a // g, num.b // g)
            den = den // g
    inv = Poly._raw(den.field, (den.coeffs[-1].inverse(),))
    num = RingElement._raw(num.curve, num.a * inv, num.b * inv)
    return num, den * inv


class RingMatrix:
    """A square matrix over the fraction field of the coordinate ring."""

    __slots__ = ("curve", "rows")

    def __init__(self, curve: CurveSpec, rows):
        self.curve = curve
        self.rows = square_rows(curve, rows, _coerce_entry)

    @property
    def n(self) -> int:
        return len(self.rows)

    def det(self) -> RingFraction:
        """Determinant, exact over the fraction field, taken over the ring
        once the denominators are cleared (``_cleared``)."""
        return _cleared(self.rows)[2]

    def is_symmetric(self) -> bool:
        return is_symmetric(self.rows)

    def all_integral(self) -> bool:
        return all(e.is_integral() for row in self.rows for e in row)

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.curve is other.curve
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.curve, self.rows))

    def __repr__(self):
        return f"RingMatrix({self.rows!r})"


def _coerce_entry(curve, e) -> RingFraction:
    """e as a matrix entry over the curve: a constant as the curve's
    shared c/1, a fraction of the curve as itself, and a polynomial or
    ring element as e/1 (``_ring_entry``)."""
    if isinstance(e, (int, FieldElement)):
        field = curve.field
        c = field.element(e)  # the value c owns the one shared c/1
        frac = curve._entries.get(c)
        if frac is None:
            frac = curve._entries[c] = RingFraction.from_ring(
                RingElement._raw(curve, Poly._raw(field, (c,)), Poly.zero(field))
            )
        return frac
    if isinstance(e, RingFraction):
        if e.curve is not curve:
            raise ValueError("mismatched curves")
        return e
    return RingFraction.from_ring(_ring_entry(curve, e))


def _ring_entry(curve, e):
    """e as an entry of an integral matrix over the curve: a ring element
    of the curve as itself, a constant as the numerator of the curve's
    shared c/1, a polynomial as a y-free ring element, and a fraction as
    its numerator when its denominator is 1.  A fraction with a
    denominator is returned as it is, for the caller to refuse.  Each
    type takes one check."""
    if type(e) is RingElement and e.curve is curve:
        return e
    if isinstance(e, (int, FieldElement)):
        return _coerce_entry(curve, e).num
    if isinstance(e, Poly):
        if e.field is not curve.field:
            raise ValueError("polynomial parts must live over the curve's field")
        return RingElement._raw(curve, e, Poly.zero(e.field))
    if isinstance(e, (RingElement, RingFraction)):
        if e.curve is not curve:
            raise ValueError("mismatched curves")
        return e.num if type(e) is RingFraction and e.den.degree < 1 else e
    raise TypeError(f"cannot place {e!r} in a matrix")


# Row-level matrix algebra, shared by matrices over the fraction field
# (RingFraction entries), over the ring (RingElement entries) and forms
# over a finite field (FieldElement entries): ``square_rows``,
# ``diagonal_rows``, ``is_symmetric``, ``matmul`` and ``congruence_rows``.
# ``det`` takes ring entries; a fraction matrix clears its denominators
# first (``_cleared``), and a form over F_q reads its determinant off its
# diagonalization (``local.diagonalize``).


def square_rows(owner, rows, entry):
    """The rows of a square matrix as tuples of ``entry(owner, e)``, owner
    a curve or field; ValueError for no rows or a row of another length."""
    n = len(rows)
    if n == 0:
        raise ValueError("matrix must have at least one row")
    out = []
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
        out.append(tuple([entry(owner, e) for e in row]))
    return tuple(out)


def diagonal_rows(entries, zero=0):
    """The rows, as lists, of the square matrix with this diagonal."""
    n = len(entries)
    return [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]


def is_symmetric(rows) -> bool:
    """Whether a square matrix given as rows is symmetric."""
    return all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i))


def matmul(a, b):
    """The product of two square matrices given as rows, summing only the
    products of two nonzero entries.  An entry with none is a zero entry
    of its row of ``a`` or, when that row has none, of its column of ``b``
    (then all zero), so it has the entries' type."""
    cols = [(col, [k for k, y in enumerate(col) if not y.is_zero()]) for col in zip(*b)]
    out = []
    for row in a:
        live = [not x.is_zero() for x in row]
        zero = None if all(live) else row[live.index(False)]
        out.append([
            reduce(add, terms) if (terms := [row[k] * col[k] for k in support if live[k]])
            else col[0] if zero is None else zero
            for col, support in cols
        ])
    return out


def det(rows):
    """Determinant of a square matrix of ring elements given as rows, by
    cofactor expansion along the first row, skipping its zero entries,
    down to a 2 x 2 base case that drops a product with a zero factor: at
    the ranks used here (n <= 3 in search and genus work, sparse Gram
    matrices beyond that) it beats fraction-free elimination, whose exact
    divisions cost more than the few products they save.  Above rank 2,
    before any product, ValueError refuses a matrix whose estimated cost
    w L (n D + 1)^2 exceeds MAX_DET_COST (``require_det_cost``): D =
    max(deg A, deg B + 2) over the ring entries, at least 1, bounds their
    degrees, and w is Y_PART_COST if an entry has a y part, else 1, since
    a product of two such entries forms five polynomial products where a
    y-free one forms one.  Ranks 1 and 2 form at most two products and
    are not estimated."""
    if len(rows) > 2:
        ring = [e for row in rows for e in row if type(e) is RingElement]
        top = max((max(e.a.degree, e.b.degree + 2) for e in ring), default=1)
        require_det_cost(rows, top, any(e.b.coeffs for e in ring))
    return _expand(rows)


def require_det_cost(rows, top: int, y_part: bool) -> None:
    """``det``'s refusal of a matrix given as rows, of rank n, with entry
    degree top: ValueError if w L (n top + 1)^2 exceeds MAX_DET_COST, w =
    Y_PART_COST if y_part else 1, where L = prod_i min(nonzero entries of
    row i, n - i) bounds the leaves of the expansion."""
    n, leaves = len(rows), 1
    for i, row in enumerate(rows):
        leaves *= min(sum(not e.is_zero() for e in row), n - i) or 1
    if (Y_PART_COST if y_part else 1) * leaves * (n * top + 1) ** 2 > MAX_DET_COST:
        raise ValueError(f"a determinant of rank {n} and entry degree {top} exceeds the cost bound {MAX_DET_COST}")


def _expand(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        if b.is_zero() or c.is_zero():  # no product b c: a d, or a zero entry
            return a if a.is_zero() else d if d.is_zero() else a * d
        return -(b * c) if a.is_zero() or d.is_zero() else a * d - b * c
    total = None
    for j, e in enumerate(rows[0]):
        if e.is_zero():
            continue
        cof = e * _expand([row[:j] + row[j + 1 :] for row in rows[1:]])
        if j % 2:
            cof = -cof
        total = cof if total is None else total + cof
    return rows[0][0] if total is None else total


def _cleared(rows):
    """(P, delta, det Q) for a square matrix Q of fractions given as rows,
    fraction-free (von zur Gathen and Gerhard, *Modern Computer Algebra*,
    ch. 6): delta is the monic lcm of the denominators, P = delta Q has
    ring entries, and det Q = det P / delta^n, reduced once
    (``_quotient``).  No product of two fractions is formed."""
    delta = Poly.one(rows[0][0].curve.field)
    for row in rows:
        for e in row:
            if e.den.degree >= 1 and e.den != delta:
                delta = e.den if delta.degree < 1 else delta // poly_gcd(delta, e.den) * e.den
    p = [[e.num if e.is_zero() or e.den == delta else e.num * (delta // e.den) for e in row] for row in rows]
    return p, delta, _quotient(det(p), delta ** len(rows))


def _quotient(num: RingElement, den: Poly) -> RingFraction:
    """num / den, den monic: the curve's shared c/1 when num = c den for a
    constant c, read off den's leading coefficient with no gcd or exact
    division, else the fraction in lowest terms."""
    if not num.b.coeffs and num.a.degree == den.degree:
        c = num.a.coeffs[-1]
        if num.a == den * Poly._raw(den.field, (c,)):
            return _coerce_entry(num.curve, c)
    return RingFraction(num.curve, num, den)


def congruence_rows(t, m):
    """T^t M T for matrices given as rows, M square; ValueError unless T
    has a row for each row of M."""
    if len(t) != len(m):
        raise ValueError("dimension mismatch")
    return matmul(tuple(zip(*t)), matmul(m, t))


def congruence(q: RingMatrix, f: RingMatrix) -> RingMatrix:
    """The congruence action Q^t F Q, exact over the fraction field."""
    if q.curve is not f.curve:
        raise ValueError("mismatched curves")
    return RingMatrix(q.curve, congruence_rows(q.rows, f.rows))
