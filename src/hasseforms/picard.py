"""Point counts, smoothness and the Picard data of a curve, and the JSON
of the reports built on them.

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

Only the ``curve``, ``hasse`` and ``verify-paper`` commands load this
module, and its public names are imported from here, except
``point_report``, which perfbench's tracer wraps on ``curvepoints`` and
is reached there; ``curvepoints`` imports this module on first use.
"""

from __future__ import annotations

from typing import Optional

from .curvepoints import AffinePoint, _cubic_logs, is_singular_point
from .curvering import CurveSpec
from .hasse import HasseDecision
from .records import Record
from .serialize import point_to_json


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
# reports as JSON


def point_report_to_json(report: PointCountReport) -> dict:
    out = {
        "schema": 1,
        "affine": report.affine,
        "total": report.total,
        "smooth": report.smooth,
        "singular_points": [point_to_json(p) for p in report.singular_points],
    }
    for key in ("pic_order", "pic_parity", "two_torsion", "warning"):
        value = getattr(report, key)
        if value is not None:
            out[key] = value
    return out


def decision_to_json(decision: HasseDecision) -> dict:
    reason = {
        "pic_order": decision.reason.pic_order,
        "pic_parity": decision.reason.pic_parity,
        "ufd": decision.reason.ufd,
        "criterion": decision.reason.criterion,
    }
    if decision.reason.two_torsion is not None:
        reason["two_torsion"] = decision.reason.two_torsion
    return {"schema": 1, "verdict": decision.verdict, "rank": decision.rank, "reason": reason}
