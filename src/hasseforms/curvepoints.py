"""Point enumeration, smoothness, group law, and Picard order for curves.

Points are counted and listed by one scan of x over the field.  The
count needs no points: over F_q there are 1 + chi(x^3 + ax + b) of them
above each x, with chi the quadratic character (chi(0) = 0).  Listing,
for callers that need the points themselves, reads the square roots of
x^3 + ax + b off its log; on the line every x is a point, with no y.  A
closed point of degree d is one Frobenius orbit of d points, so a point's
degree is its orbit's length; on the line it is also a prime of F_q[x].

For a smooth Weierstrass curve with its rational point at infinity
removed, the Picard group of the affine curve is isomorphic to the
group of rational points (P maps to the class of [P] - [infinity]), so
the Picard order is the full projective point count,
q + 1 + sum_x chi(x^3 + ax + b).  For the affine line it is 1
(polynomial rings have trivial class group).  Singular cubics still get
counted (the projective count includes the singular point), but the
Picard-group and group-law routines refuse them, since the point-group
isomorphism needs smoothness.

The 2-torsion criterion: a point of order 2 is a rational point on the
x-axis, so the group order is odd exactly when x^3 + ax + b has no root
in F_q.  ``point_report`` carries both facts side by side.
"""

from __future__ import annotations

import functools
from typing import Optional, Union

from .curvering import CurveSpec
from .finfield import FieldElement, embed, make_extension, pullback, square_and_multiply
from .funcfield import Poly, monic_rank
from .records import Record


class PointAtInfinity:
    """The distinguished infinite point, the identity of the group law."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = PointAtInfinity()


class AffinePoint(Record):
    """A solution (x, y) of a cubic over F_{q^d}, or an x of the line with
    y = None, with its closed point's degree (its Frobenius orbit's length)
    and, on the line, prime (else None); frozen, and compared and hashed by
    (x, y, degree), since x fixes the prime."""

    __slots__ = ("x", "y", "degree", "prime")

    def __init__(self, x: FieldElement, y: Optional[FieldElement], degree: int, *, prime: Optional[Poly] = None):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "prime", prime)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x, self.y, self.degree) == (other.x, other.y, other.degree)

    def __hash__(self):
        return hash((self.x, self.y, self.degree))

    def __repr__(self):
        return f"({self.x!r}, {self.y!r})"


Point = Union[AffinePoint, PointAtInfinity]


class PointCountReport(Record):
    """Counting summary; Picard data is present only for smooth curves."""

    __slots__ = ("affine", "total", "smooth", "singular_points", "pic_order", "pic_parity", "two_torsion", "warning")

    def __init__(
        self,
        affine: int,
        total: int,
        smooth: bool,
        singular_points: tuple,
        pic_order: Optional[int] = None,
        pic_parity: Optional[str] = None,
        two_torsion: Optional[bool] = None,
        warning: Optional[str] = None,
    ):
        self.affine = affine
        self.total = total
        self.smooth = smooth
        self.singular_points = singular_points
        self.pic_order = pic_order
        self.pic_parity = pic_parity
        self.two_torsion = two_torsion
        self.warning = warning


def frobenius_orbit(q: int, x0: FieldElement, y0: Optional[FieldElement]) -> list:
    """The conjugates (x0^(q^i), y0^(q^i)), i = 0, 1, ..., of a point
    over F_q, until they repeat: the geometric points of one closed
    point, whose degree is the length of the orbit (y0 None on the line)."""
    orbit, x, y = [], x0, y0
    while not orbit or x != x0 or y != y0:
        orbit.append((x, y))
        x, y = x**q, y if y is None else y**q
    return orbit


def _coordinates(xy) -> tuple:
    """The canonical sort key of a point: (x.coeffs, y.coeffs)."""
    x, y = xy
    return x.coeffs, () if y is None else y.coeffs


def enumerate_points(curve: CurveSpec, degree: int = 1, closed: bool = False):
    """All affine points with coordinates in F_{q^degree} in canonical
    coordinate order: every x of the line, with y = None, or the points of
    a cubic (``_cubic_points``), each tagged with its Frobenius orbit's
    length, its closed point's degree (1 at degree 1, with no walk), and
    on the line with its closed point's prime; one walk per orbit.
    ``closed`` keeps the first point of each orbit by ``_coordinates``, one
    per closed point, and lists the line's in ``monic_polys`` order."""
    base, line = curve.field, curve.is_polyline
    ext = make_extension(base.p, base.k * degree)
    coordinates = ((x0, None) for x0 in ext.elements()) if line else _cubic_points(curve, ext)
    walked, points = {}, []  # a point met in an earlier orbit -> (length, first point, prime)
    for x0, y0 in coordinates:
        if degree == 1:  # each point is its own orbit, and on the line its prime is x - x0
            tag = (1, (x0, y0), Poly._raw(base, (-x0, base.one())) if line else None)
        elif (tag := walked.pop((x0, y0), None)) is None:
            orbit = frobenius_orbit(base.q, x0, y0)
            prime = _minimal_polynomial([x for x, _ in orbit], base) if line else None
            tag = (len(orbit), min(orbit, key=_coordinates), prime)
            walked.update(dict.fromkeys(orbit[1:], tag))
        if not closed or tag[1] == (x0, y0):
            points.append(AffinePoint(x0, y0, tag[0], prime=tag[2]))
    if closed and line:
        points.sort(key=lambda point: monic_rank(point.prime))
    return points


def _cubic_points(curve: CurveSpec, ext):
    """The points of a cubic over ext in canonical order, by ``_cubic_logs``:
    above x none if x^3 + ax + b = g^v has odd v, (x, 0) if it is zero,
    else y = g^(v/2) and g^(v/2 + (q - 1)/2), smaller coefficients first."""
    exp, half = ext._exp, ext._half
    for x0, v in zip(ext.elements(), _cubic_logs(ext, embed(curve.a, ext).log, embed(curve.b, ext).log)):
        if v is None:
            yield x0, ext.zero()
        elif v % 2 == 0:
            r, s = exp[v // 2], exp[v // 2 + half]
            yield from ((x0, r), (x0, s)) if r.coeffs < s.coeffs else ((x0, s), (x0, r))


def _minimal_polynomial(roots: list, base) -> Poly:
    """The prime of a closed point of the line: the product of x - r over
    the roots r of its Frobenius orbit, whose coefficients lie in base
    and are pulled back there (``finfield.pullback``)."""
    ext = roots[0].field
    zero, coeffs = [ext.zero()], [ext.one()]
    for r in roots:  # c_i becomes c_(i-1) - r c_i
        coeffs = [a - r * b for a, b in zip(zero + coeffs, coeffs + zero)]
    return Poly._raw(base, coeffs if ext is base else pullback(coeffs, base))


def _cubic_logs(field, la, lb):
    """The log of x^3 + ax + b for every x in canonical order (None for
    zero), from la = log a and lb = log b, with no field-element
    arithmetic: x^3 is g^(3 log x), ax is g^(log a + log x), and a sum is
    one Zech lookup, g^i + g^j = g^(i + Z(j - i)).  Logs stay unreduced,
    below 2(q - 1); q - 1 is even, so a log's parity is chi."""
    zech, m, elements = field.zech_table(), field.q - 1, field.elements()
    next(elements)
    yield lb  # x = 0
    for x0 in elements:
        lx = x0._log
        s = 3 * lx % m  # log of x^3, then of x^3 + ax
        if la is not None:
            if (z := zech[la + lx - s]) is None:
                yield lb
                continue
            s += z
        yield s if lb is None else None if (z := zech[lb - s]) is None else s + z


def _count_scan(curve: CurveSpec):
    """(affine point count sum_x (1 + chi(x^3 + ax + b)) over F_q, whether
    the cubic has a root in F_q), from one ``_cubic_logs`` scan that is
    kept on the curve, so one curve object is scanned once."""
    if curve._scan is None:
        affine, root = 0, False
        for v in _cubic_logs(curve.field, curve.a.log, curve.b.log):
            if v is None:
                affine, root = affine + 1, True
            elif v % 2 == 0:
                affine += 2
        curve._scan = (affine, root)
    return curve._scan


def _cubic_at(curve: CurveSpec, x0: FieldElement) -> FieldElement:
    """x0^3 + a x0 + b, with a and b embedded in the field of x0."""
    return x0 * x0 * x0 + embed(curve.a, x0.field) * x0 + embed(curve.b, x0.field)


def is_singular_point(curve: CurveSpec, x0: FieldElement, y0: FieldElement) -> bool:
    """Whether (x0, y0) is a common zero of the equation and both
    partials: y0 = 0, x0^3 + a x0 + b = 0 and 3 x0^2 + a = 0."""
    if not y0.is_zero():
        return False
    return _cubic_at(curve, x0).is_zero() and (3 * x0 * x0 + embed(curve.a, x0.field)).is_zero()


def require_on_curve(curve: CurveSpec, point: AffinePoint):
    """Raise ValueError unless y^2 = x^3 + ax + b holds at the point, in
    its own field."""
    if point.y * point.y != _cubic_at(curve, point.x):
        raise ValueError(f"point {point!r} is not on the curve {curve!r}")


def is_smooth(curve: CurveSpec):
    """(smooth?, singular point list).

    Singular points are y = 0 together with a repeated root of the
    cubic.  A cubic can only repeat a root rationally, so scanning the
    base field finds them all.
    """
    if curve.is_smooth:  # the affine line included
        return True, ()
    zero = curve.field.zero()
    singular = tuple(
        AffinePoint(x0, zero, 1) for x0 in curve.field.elements() if is_singular_point(curve, x0, zero)
    )
    return False, singular


def _require_smooth(curve: CurveSpec, what: str):
    if not curve.is_smooth:
        _, sing = is_smooth(curve)
        raise ValueError(
            f"{what} requires a smooth curve; discriminant is zero "
            f"(singular at {tuple((p.x, p.y) for p in sing)})"
        )


def ec_add(curve: CurveSpec, p1: Point, p2: Point) -> Point:
    """Chord-tangent addition with the infinite point as identity."""
    if curve.is_polyline:
        raise ValueError("group law applies to Weierstrass curves")
    _require_smooth(curve, "the group law")
    if isinstance(p1, PointAtInfinity):
        return p2
    if isinstance(p2, PointAtInfinity):
        return p1
    if p1.x.field != p2.x.field:
        raise ValueError("points must be rational over a common field")
    require_on_curve(curve, p1)
    require_on_curve(curve, p2)
    ext = p1.x.field
    a = embed(curve.a, ext)
    if p1.x == p2.x and p1.y == -p2.y:
        return INFINITY
    if p1.x == p2.x:
        slope = (ext.element(3) * p1.x * p1.x + a) / (ext.element(2) * p1.y)
    else:
        slope = (p2.y - p1.y) / (p2.x - p1.x)
    x3 = slope * slope - p1.x - p2.x
    y3 = slope * (p1.x - x3) - p1.y
    return AffinePoint(x3, y3, len(frobenius_orbit(curve.field.q, x3, y3)))


def ec_multiply(curve: CurveSpec, n: int, point: Point) -> Point:
    """n-fold sum of a point under the group law (n >= 0), by double and
    add: ``finfield.square_and_multiply`` with ``ec_add`` as product."""
    return square_and_multiply(INFINITY, point, n, functools.partial(ec_add, curve))


def picard_order(curve: CurveSpec) -> int:
    """Order of the Picard group of the affine curve.

    1 for the affine line; for a smooth Weierstrass curve the projective
    point count (point group isomorphism), q + 1 + sum_x chi(x^3 + ax + b)
    by the character sum, with no point built.  Singular cubics are
    rejected: the isomorphism with the point group needs smoothness.
    """
    if curve.is_polyline:
        return 1
    _require_smooth(curve, "the Picard/point-group isomorphism")
    return _count_scan(curve)[0] + 1


def has_two_torsion(curve: CurveSpec) -> bool:
    """Whether the curve has a rational point on the x-axis, i.e. the
    cubic has a root in F_q; read off the same x-scan as the count."""
    if curve.is_polyline:
        raise ValueError("2-torsion applies to Weierstrass curves")
    _require_smooth(curve, "the 2-torsion test")
    return _count_scan(curve)[1]


def point_report(curve: CurveSpec) -> PointCountReport:
    """Counting report from one x-scan of the character sum, no point
    built; for singular cubics the count is still produced (all
    projective points, singular one included) but the Picard fields are
    left unset with a warning."""
    if curve.is_polyline:
        q = curve.field.q
        return PointCountReport(
            affine=q,
            total=q + 1,
            smooth=True,
            singular_points=(),
            pic_order=1,
            pic_parity="odd",
            two_torsion=None,
        )
    smooth, singular = is_smooth(curve)
    affine, root = _count_scan(curve)
    report = PointCountReport(
        affine=affine,
        total=affine + 1,
        smooth=smooth,
        singular_points=singular,
    )
    if smooth:
        report.pic_order = affine + 1
        report.pic_parity = "odd" if report.pic_order % 2 else "even"
        report.two_torsion = root
    else:
        report.warning = (
            "curve is singular: Picard data omitted because the "
            "point-group isomorphism requires smoothness"
        )
    return report
