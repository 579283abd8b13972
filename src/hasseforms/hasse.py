"""Hasse local-global verdicts for unimodular forms over coordinate rings.

For a unimodular symmetric bilinear form of rank n over the ring of
functions regular away from the infinite point, every form in its genus
is already globally isomorphic to it exactly when:

  rank n != 2:  the Picard group of the affine curve has odd order;
  rank n == 2:  that group is trivial, i.e. the ring is a UFD.

For a smooth Weierstrass curve the Picard order is the rational point
count, and its parity is governed by 2-torsion: odd order means no
rational point on the x-axis.  Verdicts carry these reasons so reports
are auditable, and rank 1 deliberately runs through the generic
n != 2 branch rather than a special case.

When -1 is a square in F_q the rank-2 special unitary group of the
identity form is a split torus, which pins the number of isomorphism
classes in the genus of the identity form from below by the Picard
order itself; ``binary_genus_lower_bound`` exposes that bound.
"""

from __future__ import annotations

from typing import Optional

from .curvering import CurveSpec
from .finfield import is_square
from .records import Record

HOLDS = "Holds"
FAILS = "Fails"


class HasseReason(Record):
    """Machine-checkable evidence behind a verdict."""

    __slots__ = ("pic_order", "pic_parity", "ufd", "two_torsion", "criterion")

    def __init__(self, pic_order: int, pic_parity: str, ufd: bool, two_torsion: Optional[bool], criterion: str):
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


def _picard_data(curve: CurveSpec):
    """(Picard order, 2-torsion or None on the line), cross-checked.
    ``picard_order`` refuses a singular cubic, naming its singular point;
    that is the one smoothness refusal of every verdict here."""
    from .curvepoints import has_two_torsion, picard_order  # compiles point counting on first use

    order = picard_order(curve)
    torsion = None
    if not curve.is_polyline:
        torsion = has_two_torsion(curve)
        if (order % 2 == 1) == torsion:
            raise AssertionError(
                "point-group parity disagrees with the 2-torsion criterion"
            )
    return order, torsion


def hasse_principle(curve: CurveSpec, rank: int) -> HasseDecision:
    """Decide the local-global principle for unimodular forms of the
    given rank over the curve's coordinate ring."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    order, torsion = _picard_data(curve)
    parity = "odd" if order % 2 else "even"
    ufd = order == 1
    if rank == 2:
        verdict = HOLDS if ufd else FAILS
        criterion = (
            "rank 2: holds iff the coordinate ring is a UFD "
            "(Picard group trivial)"
        )
    else:
        verdict = HOLDS if order % 2 else FAILS
        criterion = "rank != 2: holds iff the Picard group has odd order"
    return HasseDecision(
        verdict=verdict,
        rank=rank,
        reason=HasseReason(
            pic_order=order,
            pic_parity=parity,
            ufd=ufd,
            two_torsion=torsion,
            criterion=criterion,
        ),
    )


def is_ufd(curve: CurveSpec) -> bool:
    """Whether the coordinate ring has unique factorization; for these
    Dedekind rings that is exactly a trivial Picard group."""
    order, _ = _picard_data(curve)
    return order == 1


def binary_genus_lower_bound(curve: CurveSpec) -> Optional[int]:
    """Lower bound for the number of isomorphism classes in the genus of
    the rank-2 identity form, when -1 is a square (split torus case).

    Returns the Picard order then, and None when -1 is not a square,
    where the split-torus argument does not apply.
    """
    if curve.is_polyline:
        raise ValueError("the bound is stated for Weierstrass curves")
    order, _ = _picard_data(curve)
    if not is_square(curve.field.element(-1)):
        return None
    return order
