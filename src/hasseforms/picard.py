"""Point counts, point validity (on-curve, singular points), smoothness
and the Picard data of a curve, the Hasse local-global verdicts read off
them, and the JSON of the reports built on them.

For a unimodular symmetric bilinear form of rank n over the ring of
functions regular away from the infinite point, every form in its genus
is already globally isomorphic to it exactly when:

  rank n != 2:  the Picard group of the affine curve has odd order;
  rank n == 2:  that group is trivial, i.e. the ring is a UFD.

Verdicts carry these reasons so reports are auditable, and rank 1
deliberately runs through the generic n != 2 branch rather than a
special case.

The count needs no points: over F_q there are 1 + chi(x^3 + ax + b)
affine points above each x, with chi the quadratic character (chi(0) =
0), read off one scan of the logs of x^3 + ax + b
(``curvepoints._cubic_logs``).

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

When -1 is a square in F_q the rank-2 special unitary group of the
identity form is a split torus, which pins the number of isomorphism
classes in the genus of the identity form from below by the Picard
order itself; ``binary_genus_lower_bound`` exposes that bound.

Only ``local``, for its point checks, and the ``curve``, ``hasse`` and
``verify-paper`` commands load this module.  Its public names are read
here, except the two that perfbench's tracer wraps elsewhere:
``point_report`` is reached through ``curvepoints`` and
``hasse_principle`` through ``hasse``, which import it on first use.
"""

from __future__ import annotations

from .curvepoints import AffinePoint, _cubic_logs
from .curvering import CurveSpec
from .finfield import FieldElement, embed, is_square
from .records import Record
from .serialize import point_to_json

HOLDS = "Holds"
FAILS = "Fails"


class PointCountReport(Record):
    """Counting summary; Picard data is present only for smooth curves."""

    __slots__ = ("affine", "total", "smooth", "singular_points", "pic_order", "pic_parity", "two_torsion", "warning")

    def __init__(
        self,
        affine: int,
        total: int,
        smooth: bool,
        singular_points: tuple,
        pic_order: int | None = None,
        pic_parity: str | None = None,
        two_torsion: bool | None = None,
        warning: str | None = None,
    ):
        self.affine = affine
        self.total = total
        self.smooth = smooth
        self.singular_points = singular_points
        self.pic_order = pic_order
        self.pic_parity = pic_parity
        self.two_torsion = two_torsion
        self.warning = warning


class HasseReason(Record):
    """Machine-checkable evidence behind a verdict."""

    __slots__ = ("pic_order", "pic_parity", "ufd", "two_torsion", "criterion")

    def __init__(self, pic_order: int, pic_parity: str, ufd: bool, two_torsion: bool | None, criterion: str):
        self.pic_order = pic_order
        self.pic_parity = pic_parity
        self.ufd = ufd
        self.two_torsion = two_torsion
        self.criterion = criterion


class HasseDecision(Record):
    __slots__ = ("verdict", "rank", "reason")

    def __init__(self, verdict: str, rank: int, reason: HasseReason):
        self.verdict = verdict  # HOLDS | FAILS
        self.rank = rank
        self.reason = reason


def _count_scan(curve: CurveSpec):
    """(affine point count sum_x (1 + chi(x^3 + ax + b)) over F_q, whether
    the cubic has a root in F_q), from one ``_cubic_logs`` scan that is
    kept on the curve, so each curve is scanned once per process."""
    if curve._scan is None:
        affine, root = 0, False
        for v in _cubic_logs(curve.field, curve.a.log, curve.b.log):
            if v is None:
                affine, root = affine + 1, True
            elif v % 2 == 0:
                affine += 2
        curve._scan = (affine, root)
    return curve._scan


def is_singular_point(curve: CurveSpec, x0: FieldElement, y0: FieldElement) -> bool:
    """Whether (x0, y0) is a common zero of the equation and both
    partials: y0 = 0, x0^3 + a x0 + b = 0 and 3 x0^2 + a = 0."""
    return y0.is_zero() and curve.cubic()(x0).is_zero() and (3 * x0 * x0 + embed(curve.a, x0.field)).is_zero()


def require_on_curve(curve: CurveSpec, point: AffinePoint):
    """Raise ValueError unless y^2 = x^3 + ax + b holds at the point, in
    its own field."""
    if point.y is None or point.y * point.y != curve.cubic()(point.x):
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
    return False, tuple(AffinePoint(x0, zero, 1) for x0 in curve.field.elements() if is_singular_point(curve, x0, zero))


def _smooth_scan(curve: CurveSpec, what: str):
    """``_count_scan(curve)``; ValueError, naming the singular point, for
    a singular cubic, where ``what`` does not apply."""
    if not curve.is_smooth:
        _, sing = is_smooth(curve)
        raise ValueError(
            f"{what} requires a smooth curve; discriminant is zero "
            f"(singular at {tuple((p.x, p.y) for p in sing)})"
        )
    return _count_scan(curve)


def picard_order(curve: CurveSpec) -> int:
    """Order of the Picard group of the affine curve.

    1 for the affine line; for a smooth Weierstrass curve the projective
    point count (point group isomorphism), q + 1 + sum_x chi(x^3 + ax + b)
    by the character sum, with no point built.  Singular cubics are
    rejected: the isomorphism with the point group needs smoothness.
    """
    if curve.is_polyline:
        return 1
    return _smooth_scan(curve, "the Picard/point-group isomorphism")[0] + 1


def has_two_torsion(curve: CurveSpec) -> bool:
    """Whether the curve has a rational point on the x-axis, i.e. the
    cubic has a root in F_q; read off the same x-scan as the count."""
    if curve.is_polyline:
        raise ValueError("2-torsion applies to Weierstrass curves")
    return _smooth_scan(curve, "the 2-torsion test")[1]


def point_report(curve: CurveSpec) -> PointCountReport:
    """Counting report from one x-scan of the character sum, no point
    built; for singular cubics the count is still produced (all
    projective points, singular one included) but the Picard fields are
    left unset with a warning."""
    if curve.is_polyline:
        q = curve.field.q
        return PointCountReport(q, q + 1, True, (), pic_order=1, pic_parity="odd")
    smooth, singular = is_smooth(curve)
    affine, root = _count_scan(curve)
    total = affine + 1
    if not smooth:
        warning = "curve is singular: Picard data omitted because the point-group isomorphism requires smoothness"
        return PointCountReport(affine, total, smooth, singular, warning=warning)
    parity = "odd" if total % 2 else "even"
    return PointCountReport(affine, total, smooth, singular, pic_order=total, pic_parity=parity, two_torsion=root)


# ---------------------------------------------------------------------------
# local-global verdicts


def _picard_data(curve: CurveSpec):
    """(Picard order, 2-torsion or None on the line), cross-checked.
    ``picard_order`` refuses a singular cubic, naming its singular point;
    that is the one smoothness refusal of every verdict here."""
    order = picard_order(curve)
    torsion = None if curve.is_polyline else has_two_torsion(curve)
    if (order % 2 == 1) == torsion:  # never on the line, where torsion is None
        raise AssertionError("point-group parity disagrees with the 2-torsion criterion")
    return order, torsion


def hasse_principle(curve: CurveSpec, rank: int) -> HasseDecision:
    """Decide the local-global principle for unimodular forms of the
    given rank over the curve's coordinate ring."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    order, torsion = _picard_data(curve)
    ufd = order == 1
    if rank == 2:
        holds, criterion = ufd, "rank 2: holds iff the coordinate ring is a UFD (Picard group trivial)"
    else:
        holds, criterion = order % 2, "rank != 2: holds iff the Picard group has odd order"
    parity = "odd" if order % 2 else "even"
    return HasseDecision(
        verdict=HOLDS if holds else FAILS,
        rank=rank,
        reason=HasseReason(pic_order=order, pic_parity=parity, ufd=ufd, two_torsion=torsion, criterion=criterion),
    )


def is_ufd(curve: CurveSpec) -> bool:
    """Whether the coordinate ring has unique factorization; for these
    Dedekind rings that is exactly a trivial Picard group."""
    return _picard_data(curve)[0] == 1


def binary_genus_lower_bound(curve: CurveSpec) -> int | None:
    """Lower bound for the number of isomorphism classes in the genus of
    the rank-2 identity form, when -1 is a square (split torus case).

    Returns the Picard order then, and None when -1 is not a square,
    where the split-torus argument does not apply.
    """
    if curve.is_polyline:
        raise ValueError("the bound is stated for Weierstrass curves")
    order, _ = _picard_data(curve)
    return order if is_square(curve.field.element(-1)) else None


# ---------------------------------------------------------------------------
# reports as JSON


def report_to_json(report) -> dict:
    """A point report or a verdict as JSON, its fields under ``"schema": 1``."""
    return {"schema": 1, **_fields(report)}


def _fields(record) -> dict:
    """A report's fields by name, with each field that is None left out,
    its points as point records and its reason as that reason's fields."""
    out = {}
    for name in record.__slots__:
        value = getattr(record, name)
        if name == "singular_points":
            value = [point_to_json(p) for p in value]
        elif name == "reason":
            value = _fields(value)
        if value is not None:
            out[name] = value
    return out
