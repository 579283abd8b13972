import subprocess
import sys

import pytest

from hasseforms.curvepoints import has_two_torsion
from hasseforms.curvering import CurveSpec
from hasseforms.finfield import make_extension
from hasseforms.hasse import (
    FAILS,
    HOLDS,
    binary_genus_lower_bound,
    hasse_principle,
    is_ufd,
)

from oracles import smooth_weierstrass_pairs

F3 = make_extension(3, 1)
F5 = make_extension(5, 1)


def test_polyline_holds_for_all_ranks():
    line = CurveSpec.polyline(F5)
    for rank in (1, 2, 3, 4, 5):
        decision = hasse_principle(line, rank)
        assert decision.verdict == HOLDS
        assert decision.reason.pic_order == 1
        assert decision.reason.ufd


def test_odd_order_curve():
    curve = CurveSpec.weierstrass(F5, 1, 1)  # 9 points
    assert hasse_principle(curve, 3).verdict == HOLDS
    d2 = hasse_principle(curve, 2)
    assert d2.verdict == FAILS
    assert d2.reason.pic_order == 9
    assert not d2.reason.ufd


def test_even_order_curve_fails_everywhere():
    curve = CurveSpec.weierstrass(F5, -1, 0)  # 8 points
    for rank in (1, 2, 3, 4, 5):
        decision = hasse_principle(curve, rank)
        assert decision.verdict == FAILS
        assert decision.reason.pic_order == 8


SINGULAR_REFUSAL = (
    r"the Picard/point-group isomorphism requires a smooth curve; "
    r"discriminant is zero \(singular at \(\(F5\(4\), F5\(0\)\),\)\)"
)


def test_singular_curve_rejected():
    # one smoothness refusal, picard's, which names the singular point
    with pytest.raises(ValueError, match=SINGULAR_REFUSAL):
        hasse_principle(CurveSpec.weierstrass(F5, 2, 3), 3)
    with pytest.raises(ValueError, match=SINGULAR_REFUSAL):
        is_ufd(CurveSpec.weierstrass(F5, 2, 3))


def test_bad_rank_rejected():
    with pytest.raises(ValueError):
        hasse_principle(CurveSpec.polyline(F5), 0)


def test_reason_record_consistency():
    curve = CurveSpec.weierstrass(F5, 1, 1)
    reason = hasse_principle(curve, 3).reason
    assert reason.pic_parity == "odd"
    assert reason.two_torsion is False
    assert "odd order" in reason.criterion


def test_ufd_check():
    assert is_ufd(CurveSpec.polyline(F3))
    assert not is_ufd(CurveSpec.weierstrass(F5, 1, 1))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_rank3_verdict_matches_two_torsion(q):
    _, pairs = smooth_weierstrass_pairs(q)
    field = pairs[0][0].field
    for a, b in pairs:
        curve = CurveSpec.weierstrass(field, a, b)
        holds = hasse_principle(curve, 3).verdict == HOLDS
        assert holds == (not has_two_torsion(curve))


def test_verdict_uniform_across_nontwo_ranks():
    for curve in (
        CurveSpec.polyline(F5),
        CurveSpec.weierstrass(F5, 1, 1),
        CurveSpec.weierstrass(F5, -1, 0),
        CurveSpec.weierstrass(F3, 1, 1),
    ):
        verdicts = {hasse_principle(curve, n).verdict for n in (1, 3, 4, 5)}
        assert len(verdicts) == 1


def test_ufd_implies_holds_everywhere():
    _, pairs = smooth_weierstrass_pairs(5)
    field = pairs[0][0].field
    for a, b in pairs:
        curve = CurveSpec.weierstrass(field, a, b)
        if is_ufd(curve):
            for n in (1, 2, 3, 4):
                assert hasse_principle(curve, n).verdict == HOLDS


def test_binary_genus_lower_bound():
    assert binary_genus_lower_bound(CurveSpec.weierstrass(F5, 1, 1)) == 9
    # -1 is not a square mod 3, so the split-torus bound does not apply
    assert binary_genus_lower_bound(CurveSpec.weierstrass(F3, 1, 1)) is None
    with pytest.raises(ValueError, match=SINGULAR_REFUSAL):
        binary_genus_lower_bound(CurveSpec.weierstrass(F5, 2, 3))
    with pytest.raises(ValueError):
        binary_genus_lower_bound(CurveSpec.polyline(F5))


def test_lower_bound_consistent_with_rank2_failure():
    for q in (5, 13):
        _, pairs = smooth_weierstrass_pairs(q)
        field = pairs[0][0].field
        for a, b in pairs[:40]:
            curve = CurveSpec.weierstrass(field, a, b)
            bound = binary_genus_lower_bound(curve)
            if bound is not None and bound >= 2:
                assert hasse_principle(curve, 2).verdict == FAILS


def test_parity_invariant_survives_optimize():
    # the parity/2-torsion cross-check must not vanish under python -O,
    # which strips assert statements
    script = (
        "from hasseforms import curvepoints, hasse\n"
        "from hasseforms.curvering import CurveSpec\n"
        "from hasseforms.finfield import make_extension\n"
        "curvepoints.has_two_torsion = lambda curve: True\n"
        "try:\n"
        "    hasse.hasse_principle(CurveSpec.weierstrass(make_extension(5, 1), 1, 1), 3)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
