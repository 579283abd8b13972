"""Point enumeration, smoothness, group law, and Picard order for curves.

Points are counted and listed by one scan of x over the field.  The
count needs no points: over F_q there are 1 + chi(x^3 + ax + b) of them
above each x, with chi the quadratic character (chi(0) = 0).  Listing,
for callers that need the points themselves, reads the square roots of
x^3 + ax + b off its log.  A closed point of degree d is one
Frobenius orbit of d points, so a point's degree is the length of its
orbit.

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

from typing import Optional, Union

from .curvering import CurveSpec
from .finfield import FieldElement, embed, make_extension
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
    """A solution (x, y) of the curve equation over F_{q^d}; frozen, and
    hashable by value."""

    __slots__ = ("x", "y", "degree")

    def __init__(self, x: FieldElement, y: FieldElement, degree: int = 1):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

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


def frobenius_orbit(q: int, x0: FieldElement, y0: FieldElement) -> list:
    """The conjugates (x0^(q^i), y0^(q^i)), i = 0, 1, ..., of a point
    over F_q, until they repeat: the geometric points of one closed
    point, whose degree is the length of the orbit."""
    orbit = [(x0, y0)]
    x, y = x0**q, y0**q
    while x != x0 or y != y0:
        orbit.append((x, y))
        x, y = x**q, y**q
    return orbit


def enumerate_points(curve: CurveSpec, degree: int = 1):
    """All affine points with coordinates in F_{q^degree}, by an x-scan on
    logs (``_cubic_logs``): above x, none when x^3 + ax + b = g^v has odd
    v, (x, 0) when it is zero, else y = g^(v/2) and g^(v/2 + (q - 1)/2),
    smaller coefficient tuple first.  Points come in canonical coordinate
    order, tagged with their Frobenius orbit's length (their closed
    point's degree; 1 at degree 1, with no walk)."""
    if curve.is_polyline:
        raise ValueError(
            "the affine line has no curve equation; its closed points are "
            "enumerated as monic irreducible polynomials"
        )
    ext = make_extension(curve.field.p, curve.field.k * degree)
    exp, half, base_q, points = ext._exp, ext._half, curve.field.q, []
    logs = _cubic_logs(ext, embed(curve.a, ext).log, embed(curve.b, ext).log)
    for x0, v in zip(ext.elements(), logs):
        if v is None:
            ys = (ext.zero(),)
        elif v % 2:
            continue
        else:
            r, s = exp[v // 2], exp[v // 2 + half]
            ys = (r, s) if r.coeffs < s.coeffs else (s, r)
        for y0 in ys:
            points.append(AffinePoint(x0, y0, 1 if degree == 1 else len(frobenius_orbit(base_q, x0, y0))))
    return points


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
        AffinePoint(x0, zero) for x0 in curve.field.elements() if is_singular_point(curve, x0, zero)
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
    """n-fold sum of a point under the group law (n >= 0)."""
    if n < 0:
        raise ValueError("negative multiples not supported")
    acc: Point = INFINITY
    for _ in range(n):
        acc = ec_add(curve, acc, point)
    return acc


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
