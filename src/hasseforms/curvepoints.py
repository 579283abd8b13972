"""Point enumeration, smoothness and Picard order for curves.

Points are counted and listed by one scan of x over the field.  The
count needs no points: over F_q there are 1 + chi(x^3 + ax + b) of them
above each x, with chi the quadratic character (chi(0) = 0).  Listing,
for callers that need the points themselves, reads the square roots of
x^3 + ax + b off its log; on the line every x is a point, with no y.  A
closed point of degree d is one Frobenius orbit of d points, so a point's
degree is its orbit's length; on the line it is also a prime of F_q[x].

Orbits are walked on discrete logs: in F_{q^d} with generator g, the
Frobenius x -> x^q sends g^n to g^(nq mod (q^d - 1)), so the orbit of a
point is the cycle of its coordinates' logs under n -> nq, and no field
element is raised to a power.  The prime of a line place is the product
of x - r over the roots r of its orbit (Lidl and Niederreiter, *Finite
Fields*, section 2.2), formed on logs with Zech sums and pulled back to
F_q once per coefficient.

For a smooth Weierstrass curve with its rational point at infinity
removed, the Picard group of the affine curve is isomorphic to the
group of rational points (P maps to the class of [P] - [infinity]), so
the Picard order is the full projective point count,
q + 1 + sum_x chi(x^3 + ax + b).  For the affine line it is 1
(polynomial rings have trivial class group).  Singular cubics still get
counted (the projective count includes the singular point), but the
Picard-group routines refuse them, since the point-group isomorphism
needs smoothness.

The 2-torsion criterion: a point of order 2 is a rational point on the
x-axis, so the group order is odd exactly when x^3 + ax + b has no root
in F_q.  ``point_report`` carries both facts side by side.
"""

from __future__ import annotations

import math
from typing import Optional

from .curvering import CurveSpec
from .finfield import FieldElement, embed, make_extension, pullback_table
from .funcfield import Poly, monic_rank
from .records import Record


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


def _cycle(q: int, m: int, n) -> list:
    """The Frobenius orbit of g^n in a field of order m + 1 with generator
    g, as logs: the cycle n, nq, nq^2, ... mod m, which x -> x^q walks.
    None, the zero element, is its own orbit."""
    if n is None:
        return [None]
    orbit, r = [n], n * q % m
    while r != n:
        orbit.append(r)
        r = r * q % m
    return orbit


def _conjugates(q: int, m: int, lx, ly) -> list:
    """The Frobenius orbit of a point with coordinate logs (lx, ly), as
    log pairs: the cycles of x and of y (``_cycle``) run side by side
    until both close, so its length, the closed point's degree, is the
    lcm of theirs."""
    xs, ys = _cycle(q, m, lx), _cycle(q, m, ly)
    if len(xs) == len(ys):
        return list(zip(xs, ys))
    return [(xs[i % len(xs)], ys[i % len(ys)]) for i in range(math.lcm(len(xs), len(ys)))]


def orbit_degree(q: int, x0: FieldElement, y0: Optional[FieldElement]) -> int:
    """The degree of the closed point of (x0, y0) over F_q (y0 None on
    the line): the length of its Frobenius orbit, the lcm of its
    coordinates' cycles on logs (``_cycle``), with no point built."""
    m = x0.field.q - 1
    return math.lcm(len(_cycle(q, m, x0._log)), 1 if y0 is None else len(_cycle(q, m, y0._log)))


def enumerate_points(curve: CurveSpec, degree: int = 1, closed: bool = False):
    """All affine points with coordinates in F_{q^degree} in canonical
    coordinate order: every x of the line, with y = None, or the points of
    a cubic (``_cubic_points``), each tagged with its Frobenius orbit's
    length, its closed point's degree, and on the line with its closed
    point's prime.  ``closed`` keeps the point of each orbit with the
    least coordinates (x.coeffs, y.coeffs), one per closed point, and
    lists the line's in ``monic_polys`` order.

    At degree 1 every point is its own orbit and the line's prime is
    x - x0, so nothing is walked.  Above it each orbit is walked once, on
    logs: on the line, the cycle of every log not yet met (``_cycle``),
    with its prime formed on logs too (``_orbit_prime``); on the cubic,
    the orbit of every point not yet met (``_conjugates``)."""
    base, line = curve.field, curve.is_polyline
    ext = make_extension(base.p, base.k * degree)
    if degree == 1:
        if not line:
            return [AffinePoint(x0, y0, 1) for x0, y0 in _cubic_points(curve, ext)]
        # the prime of x0 is x + c, c = -x0; monic_polys order is c's order
        one = base.one()
        roots = ((-c, c) for c in base.elements()) if closed else ((x0, -x0) for x0 in base.elements())
        return [AffinePoint(x0, None, 1, prime=Poly._raw(base, (c, one))) for x0, c in roots]
    q, m, exp, zero = base.q, ext.q - 1, ext._exp, ext.zero()
    if line:
        orbits = [(1, zero, Poly._raw(base, (base.zero(), base.one())))]  # x = 0, whose prime is x
        tags = [None] * m  # log -> (length, least x, prime) of its orbit
        for n in range(m):
            if tags[n] is None:
                orbit = _cycle(q, m, n)
                least = exp[min(orbit, key=lambda r: exp[r].coeffs)]
                tag = (len(orbit), least, _orbit_prime(orbit, base, ext))
                orbits.append(tag)
                for r in orbit:
                    tags[r] = tag
        if closed:
            orbits.sort(key=lambda tag: monic_rank(tag[2]))
            return [AffinePoint(x0, None, length, prime=prime) for length, x0, prime in orbits]
        points = []
        for x0 in ext.elements():
            length, _, prime = orbits[0] if x0._log is None else tags[x0._log]
            points.append(AffinePoint(x0, None, length, prime=prime))
        return points

    def coordinates(logs):
        lx, ly = logs
        return (zero if lx is None else exp[lx]).coeffs, (zero if ly is None else exp[ly]).coeffs

    walked, points = {}, []  # logs of a point met in an earlier orbit -> (length, least logs)
    for x0, y0 in _cubic_points(curve, ext):
        logs = (x0._log, y0._log)
        if (tag := walked.pop(logs, None)) is None:
            orbit = _conjugates(q, m, *logs)
            tag = (len(orbit), min(orbit, key=coordinates))
            walked.update(dict.fromkeys(orbit[1:], tag))
        if not closed or tag[1] == logs:
            points.append(AffinePoint(x0, y0, tag[0]))
    return points


def _orbit_prime(roots: list, base, ext) -> Poly:
    """The prime of a closed point of the line: the product of x - g^r
    over the logs r of its orbit's nonzero roots, formed on logs with
    Zech sums; its coefficients lie in base, and each is pulled back there
    once (``finfield.pullback_table``)."""
    m, half, zech = ext.q - 1, ext._half, ext._zech
    coeffs = [0]  # logs (None for 0), lowest degree first, of the product so far: 1
    for r in roots:  # c_i becomes c_(i-1) - g^r c_i
        r += half  # the log of -g^r
        out, low = [], None
        for c in coeffs:
            t = None if c is None else (c + r) % m
            if low is not None:
                if t is None:
                    t = low
                else:
                    z = zech[t - low]
                    t = None if z is None else (low + z) % m
            out.append(t)
            low = c
        out.append(low)
        coeffs = out
    pull, zero = pullback_table(ext, base), base.zero()
    return Poly._raw(base, [zero if c is None else pull[c] for c in coeffs])


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
