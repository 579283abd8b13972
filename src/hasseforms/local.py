"""Forms over F_q and at the closed places of a curve, and the primes of
the line.

Classification over a finite field of odd order is rank plus the square
class of the determinant, so ``field_isomorphic`` is a two-invariant
comparison; the test suite pins it against exhaustive congruence search
over the full general linear group.  Both invariants are read off one
congruence diagonalization (``diagonalize``), kept on the form: the
rank counts its nonzero entries and the determinant is their product.
Local isomorphism of unimodular forms at a closed place reduces to form
isomorphism over its residue field F_{q^e}, which ``local_isomorphic``
reads off the constant Gram determinants and the place degree e, with
no matrix evaluated.

Primes of F_q(x) relative to the polynomial ring are the monic
irreducible polynomials plus the distinguished infinite place, where
the valuation of num/den is deg(den) - deg(num).  ``valuation`` takes a
polynomial or a fraction with no y part.  The residue field at a finite
prime of degree d is F_{q^d}, where the prime's closed place is a
Frobenius orbit (``curvepoints.enumerate_points``); reducing there is
evaluating at a root.  ``monic_irreducibles`` lists the primes of a
degree d, the minimal polynomials of the line's Frobenius orbits of
length d, and ``factor`` is distinct-degree factorization on the
Frobenius powers x^(q^j) mod f (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 14), splitting a part that holds two or more
primes by equal degree (Cantor and Zassenhaus, Math. Comp. 36, 1981).

No CLI command runs this code.  Its public names are imported from
here, except the five that perfbench's tracer wraps on ``forms`` and
``funcfield`` (``diagonalize``, ``local_isomorphic``,
``monic_irreducibles``, ``factor``, ``valuation``), which are reached
there; those modules import this one on first use.  The code here calls
``diagonalize`` and ``enumerate_points`` as attributes of the modules
the tracer wraps them on, so that the tracer sees each call.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import mul

from . import curvepoints, forms
from .curvepoints import AffinePoint, _conjugates
from .curvering import CurveSpec, diagonal_rows, is_symmetric, square_rows
from .finfield import MAX_INSPECTION_SIZE, FieldElement, FiniteField, capped_power, is_square
from .forms import GramMatrix, is_unimodular
from .funcfield import Poly, _coeff_text, is_irreducible, monic_polys, monic_rank, poly_gcd, to_text
from .picard import is_singular_point, require_on_curve
from .records import Record

FACTOR_DEGREE_BOUND = 64


# ---------------------------------------------------------------------------
# Primes of the line


def monic_irreducibles(field: FiniteField, degree: int):
    """All monic irreducibles of the degree in ``monic_polys`` order: the
    primes of the line's closed places of that degree, which
    ``curvepoints.enumerate_points`` forms only for the Frobenius orbits
    of that length in F_{q^degree}.  The walk scans F_{q^degree}, so
    q^degree > MAX_INSPECTION_SIZE is refused before anything is built."""
    if capped_power(field.q, degree, MAX_INSPECTION_SIZE) > MAX_INSPECTION_SIZE:
        raise ValueError(f"{field.q}^{degree} monics exceed the enumeration bound {MAX_INSPECTION_SIZE}")
    line = CurveSpec.polyline(field)
    return tuple(place.prime for place in curvepoints.enumerate_points(line, degree))


def _multiplicity(f: Poly, prime: Poly):
    """(m, f / prime^m) for the multiplicity m of prime in f != 0."""
    mult = 0
    while True:
        quo, rem = divmod(f, prime)
        if not rem.is_zero():
            return mult, f
        f, mult = quo, mult + 1


def _equal_degree_primes(g: Poly, j: int):
    """The distinct primes of degree j whose product is g, by monic_rank.

    For q odd, a prime p of degree j and a in F_q[x], a^((q^j - 1)/2) is
    0, 1 or -1 mod p as a is zero, a nonzero square or a non-square in
    F_{q^j} = F_q[x]/(p).  So gcd(part, a^((q^j - 1)/2) - 1) splits a part
    when that power is 1 mod some but not all of its primes, and an a
    that does not split a part splits none of the part's divisors.  The
    parts are tried with a = x, x + 1, ..., x^2, ... in ``monic_polys``
    order, degree by degree, until each has degree j: by the Chinese
    remainder theorem some monic a of degree < deg g is a square mod one
    prime of g and not mod another.
    """
    parts, e = [g], (g.field.q**j - 1) // 2
    candidates = (a for k in itertools.count(1) for a in monic_polys(g.field, k))
    while any(part.degree > j for part in parts):
        a = next(candidates)
        split = []
        for part in parts:
            d = poly_gcd(part, pow(a, e, part) - 1) if part.degree > j else part
            split += [d, part // d] if 0 < d.degree < part.degree else [part]
        parts = split
    # the split leaves the primes in no useful order
    return sorted(parts, key=monic_rank)


def factor(f: Poly):
    """Factor into monic irreducibles by distinct-degree factorization.

    With every prime of degree < j divided out of rem, gcd(rem, x^(q^j) - x)
    is the product of the distinct primes of degree j dividing rem.  A
    product of degree j is one prime; a longer one is split by equal
    degree (``_equal_degree_primes``).  Once rem has degree < 2j it is
    itself prime.

    Returns (leading coefficient, [(prime, multiplicity), ...]), which
    reassembles f.  The primes come degree by degree, each degree in
    ``monic_rank`` order, and the prime rem left last has the largest
    degree, so they are in ``monic_polys`` order.
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
        for prime in _equal_degree_primes(g, j):
            mult, rem = _multiplicity(rem, prime)
            factors.append((prime, mult))
    return lead, factors


class PrimePoly(Record):
    """A prime of F_q(x) relative to F_q[x]: a monic irreducible
    polynomial, or the distinguished infinite place."""

    __slots__ = ("field", "poly")

    def __init__(self, field: FiniteField, poly: Poly | None):
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


def valuation(r, p: PrimePoly) -> int:
    """v_p of a nonzero polynomial or line fraction (a RingFraction with
    no y part): at a finite prime, its multiplicity in the numerator minus
    that in the denominator; at infinity, deg den - deg num."""
    if isinstance(r, Poly):
        num, den = r, Poly.one(r.field)
    elif r.num.b.is_zero():
        num, den = r.num.a, r.den
    else:
        raise ValueError("a fraction with a y part lives on a cubic, not on the line")
    if num.is_zero():
        raise ValueError("valuation of zero is undefined")
    if p.is_infinite:
        return den.degree - num.degree
    return _multiplicity(num, p.poly)[0] - _multiplicity(den, p.poly)[0]


# ---------------------------------------------------------------------------
# Forms over finite fields


class FieldForm:
    """A symmetric matrix of field elements, its rows checked and coerced
    by ``square_rows``, as a ring matrix's are.  Its determinant and rank
    are read off one diagonalization (``diagonalize``), made on first use
    and kept."""

    __slots__ = ("field", "rows", "_reduced")

    def __init__(self, field: FiniteField, rows):
        coerced = square_rows(field, rows, FiniteField.element)
        if not is_symmetric(coerced):
            raise ValueError("form matrix must be symmetric")
        self.field = field
        self.rows = coerced
        self._reduced = None  # diagonalize's (diag, T), made on first use

    @classmethod
    def diagonal(cls, field, entries) -> FieldForm:
        return cls(field, diagonal_rows(entries))

    @property
    def n(self) -> int:
        return len(self.rows)

    def det(self) -> FieldElement:
        """The product of the diagonal: T is a product of transvections
        e_i <- e_i + c e_j, so det T = 1 and det F = det(T^t F T)."""
        return reduce(mul, forms.diagonalize(self)[0])

    def is_degenerate(self) -> bool:
        return self.det().is_zero()

    @property
    def rank(self) -> int:
        diag, _ = forms.diagonalize(self)
        return sum(1 for d in diag if not d.is_zero())

    def __eq__(self, other):
        return (
            isinstance(other, FieldForm)
            and self.field is other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field.q, self.rows))

    def __repr__(self):
        return "FieldForm([" + ", ".join("[" + ", ".join(map(_coeff_text, row)) + "]" for row in self.rows) + "])"


def diagonalize(form: FieldForm):
    """Congruence diagonalization over a field of odd characteristic.

    Returns (diagonal entries, T) with T^t F T diagonal, kept on the form
    and returned again on a later call.  A zero pivot with a nonzero
    off-diagonal partner j is repaired by one transvection e_i <- e_i +
    c e_j: the new pivot is c (2F_ij + c F_jj), so c = 1 unless 2F_ij +
    F_jj = 0, when c = -1 (and 2F_ij - F_jj = 4F_ij).  Pivots and
    partners are always taken at the lowest index.  Degenerate forms
    simply keep zeros on the diagonal, so the rank is preserved.
    """
    if form._reduced is not None:
        return form._reduced
    field = form.field
    n = form.n
    m = [list(row) for row in form.rows]
    t = diagonal_rows([field.one()] * n, field.zero())

    def add_basis(i, j, c):
        # e_i <- e_i + c * e_j; a zero entry of e_j's column or row adds nothing
        for row in t:
            if not row[j].is_zero():
                row[i] = row[i] + c * row[j]
        for row in m:
            if not row[j].is_zero():
                row[i] = row[i] + c * row[j]
        mi, mj = m[i], m[j]
        for r in range(n):
            if not mj[r].is_zero():
                mi[r] = mi[r] + c * mj[r]

    for i in range(n):
        if m[i][i].is_zero():
            j = next((k for k in range(i + 1, n) if not m[i][k].is_zero()), None)
            if j is None:
                continue  # e_i lies in the radical of the trailing block
            add_basis(i, j, field.element(-1 if (m[i][j] + m[i][j] + m[j][j]).is_zero() else 1))
        inv = m[i][i].inverse()
        for j in range(i + 1, n):
            if not m[i][j].is_zero():
                add_basis(j, i, -(m[i][j] * inv))
    form._reduced = tuple(m[i][i] for i in range(n)), tuple(tuple(row) for row in t)
    return form._reduced


def field_isomorphic(f: FieldForm, g: FieldForm) -> bool:
    """Rank plus the square class of the determinant decide isomorphism
    over a finite field of odd order (Witt classification)."""
    if f.field is not g.field:
        raise ValueError("forms live over different fields")
    det_f, det_g = f.det(), g.det()
    if det_f.is_zero() or det_g.is_zero():
        raise ValueError("isomorphism test requires nondegenerate forms")
    return f.n == g.n and is_square(det_f) == is_square(det_g)


# ---------------------------------------------------------------------------
# Forms at a closed place


def local_isomorphic(f: GramMatrix, g: GramMatrix, at) -> bool:
    """Whether two unimodular forms agree over the residue field F_{q^e}
    of a closed place: a monic irreducible of the line of degree e, or a
    point of the line (y = None, as ``enumerate_points`` lists it) or of
    the cubic whose Frobenius orbit has its stated length e.

    Rank and the square class of the determinant classify forms there.
    The determinants are constants c of F_q^x, and c^((q^e - 1)/2) =
    chi(c)^(1 + q + ... + q^(e-1)): for even e every c is a square, for
    odd e c keeps its class in F_q.  No matrix is evaluated.  ValueError
    rejects a prime over another field or at infinity, and a point off
    the curve, over another field, singular, or of a wrong stated degree.
    """
    if f.curve is not g.curve:
        raise ValueError("forms live over different curves")
    for name, form in (("first", f), ("second", g)):
        if not is_unimodular(form):
            raise ValueError(f"{name} form is not unimodular; its reduction may degenerate")
    curve = f.curve
    if isinstance(at, PrimePoly):
        if not curve.is_polyline:
            raise ValueError("prime reduction applies over the affine line")
        if at.field is not curve.field or at.is_infinite:
            raise ValueError(f"{at!r} is not a finite prime over the curve's field")
        e = at.degree
    elif isinstance(at, AffinePoint):
        if curve.is_polyline:
            if at.y is not None:
                raise ValueError(f"point {at!r} has a y coordinate, which the affine line has not")
            if at.x.field.p != curve.field.p or at.x.field.k % curve.field.k:
                raise ValueError(f"point {at!r} does not lie over the curve's field")
        else:
            require_on_curve(curve, at)
            if is_singular_point(curve, at.x, at.y):
                raise ValueError(
                    "reduction at the singular point is rejected: the local ring "
                    "there is not a discrete valuation ring"
                )
        # the closed point's degree: its Frobenius orbit's length, walked on logs
        e = len(_conjugates(curve.field.q, at.x.field.q - 1, at.x._log, None if at.y is None else at.y._log))
        if e != at.degree:
            raise ValueError(f"point {at!r} has degree {e}, not the stated {at.degree}")
    else:
        raise TypeError(f"cannot localize at {at!r}")
    c_f, c_g = f.det().constant_value(), g.det().constant_value()
    return f.n == g.n and (e % 2 == 0 or is_square(c_f) == is_square(c_g))
