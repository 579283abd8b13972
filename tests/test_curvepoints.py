import math
import random

import pytest

from hasseforms.curvepoints import AffinePoint, enumerate_points, point_report
from hasseforms import curvepoints, finfield, genus, picard
from hasseforms.curvering import CurveSpec
from hasseforms.finfield import FieldElement, FiniteField, embed, make_extension
from hasseforms.hasse import hasse_principle
from hasseforms.picard import has_two_torsion, is_smooth, picard_order

from oracles import (
    INFINITY,
    affine_count_by_squares,
    closed_point_counts,
    closed_points_by_trying_every_y,
    count_points_char_sum,
    cubic_has_root,
    ec_add,
    ec_multiply,
    frobenius_orbit_by_powering,
    points_by_trying_every_y,
    smooth_weierstrass_pairs,
)

F5 = make_extension(5, 1)
SINGULAR = CurveSpec.weierstrass(F5, 2, 3)
C511 = CurveSpec.weierstrass(F5, 1, 1)
C510 = CurveSpec.weierstrass(F5, -1, 0)


def pt(curve, x, y):
    return AffinePoint(curve.field.element(x), curve.field.element(y), 1)


# -- counting ----------------------------------------------------------------


def test_point_count_singular_cubic():
    pts = enumerate_points(SINGULAR)
    assert len(pts) == 6
    assert point_report(SINGULAR).total == 7


@pytest.mark.parametrize(
    "curve,affine,total",
    [(SINGULAR, 6, 7), (C511, 8, 9), (C510, 7, 8)],
)
def test_point_counts_match_char_sum_oracle(curve, affine, total):
    a = curve.a.coeffs[0]
    b = curve.b.coeffs[0]
    assert count_points_char_sum(5, a, b) == affine
    assert len(enumerate_points(curve)) == affine
    assert point_report(curve).total == total


def test_enumerate_respects_size_bound():
    with pytest.raises(ValueError):
        enumerate_points(C511, degree=6)  # 5^6 = 15625 > 121^2
    assert all(p.x.field.q == 625 for p in enumerate_points(C511, degree=4))


def test_degree_two_enumeration():
    # the closed points of degree 2 are written in F_25 and satisfy the
    # embedded equation exactly; with the a points of degree 1, each of
    # the b of degree 2 standing for two, they are every point of F_25
    ones, twos = enumerate_points(C511), enumerate_points(C511, degree=2)
    assert twos and {p.degree for p in twos} == {2}
    ext = twos[0].x.field
    a, b = embed(C511.a, ext), embed(C511.b, ext)
    for p in twos:
        assert p.x.field is p.y.field is ext
        assert p.y * p.y == p.x**3 + a * p.x + b
    assert len(ones) + 2 * len(twos) == affine_count_by_squares(ext, a, b)


def test_point_degree_is_orbit_length():
    # the degree of a point is the lcm of its coordinates' degrees, not
    # the max: over F_3 at degree 6, six points have coordinates of
    # degrees 2 and 3, and tagged as degree 3 their closed point was
    # missing from the 126 of degree 6
    F3 = make_extension(3, 1)
    curve = CurveSpec.weierstrass(F3, 2, 1)
    counts = [len(enumerate_points(curve, d)) for d in range(1, 7)]
    assert [counts[d - 1] for d in (1, 2, 3, 6)] == [6, 0, 7, 126]
    assert counts == closed_point_counts(F3, F3.element(2), F3.one(), 6)


def test_orbit_prime_carries_a_zero_coefficient():
    # the roots a = g^r and -a = g^(r + (q - 1)/2) multiply to x^2 - a^2,
    # whose x-coefficient is zero: the next root must read its log as None.
    # With base = ext the pullback is the identity, so any logs will do
    from hasseforms.funcfield import Poly

    ext = make_extension(7, 2)
    r, half = 5, (ext.q - 1) // 2
    for roots in ([r, r + half], [r, r + half, 11], [r + half, 11, r]):
        want = Poly.one(ext)
        for root in roots:
            want = want * Poly(ext, [-ext._exp[root], 1])
        got = genus._orbit_prime(roots, ext, ext)
        assert got == want and got.degree == len(roots)
    assert genus._orbit_prime([r, r + half], ext, ext).coeffs[1].is_zero()


def test_points_compare_by_coordinates_and_degree():
    # equality reads (x, y, degree), the fields the hash reads: a line
    # place written without its prime is the same place
    place = enumerate_points(CurveSpec.polyline(F5))[1]
    assert place.prime is not None
    bare = AffinePoint(place.x, None, 1)
    assert bare == place and hash(bare) == hash(place) and len({bare, place}) == 1
    assert AffinePoint(place.x, None, 2) != place and AffinePoint(place.x, F5.zero(), 1) != place
    point = enumerate_points(C511, 2)[0]
    assert AffinePoint(point.x, point.y, 2) == point and AffinePoint(point.x, -point.y, 2) != point
    assert point != (point.x, point.y)


# -- smoothness ----------------------------------------------------------------


def test_singular_locus_of_worked_cubic():
    smooth, sing = is_smooth(SINGULAR)
    assert not smooth
    assert [(p.x, p.y) for p in sing] == [(F5.element(4), F5.zero())]


def test_smooth_curves_have_empty_locus():
    assert is_smooth(C511) == (True, ())
    assert is_smooth(C510) == (True, ())


@pytest.mark.parametrize("p", [3, 5, 7])
def test_singular_locus_matches_integer_scan(p):
    # y = 0 and x a common root of x^3 + ax + b and 3x^2 + a, in ints mod p
    field = make_extension(p, 1)
    for a in range(p):
        for b in range(p):
            curve = CurveSpec.weierstrass(field, a, b)
            expected = [
                x for x in range(p) if (x**3 + a * x + b) % p == 0 and (3 * x * x + a) % p == 0
            ]
            smooth, sing = is_smooth(curve)
            assert smooth == (not expected) == curve.is_smooth
            assert [(q.x.coeffs[0], q.y.coeffs[0]) for q in sing] == [(x, 0) for x in expected]


def test_char3_smoothness():
    F3 = make_extension(3, 1)
    # in characteristic 3 the discriminant degenerates to -a^3
    assert CurveSpec.weierstrass(F3, 1, 1).is_smooth
    assert not CurveSpec.weierstrass(F3, 0, 1).is_smooth


# -- group law --------------------------------------------------------------------


def test_identity_and_inverse():
    p = pt(C510, 2, 1)
    assert ec_add(C510, p, INFINITY) == p
    assert ec_add(C510, INFINITY, p) == p
    minus = pt(C510, 2, -1)
    assert ec_add(C510, p, minus) is INFINITY


def test_two_torsion_chord():
    # chord through (0,0) and (1,0) meets the third root of x^3 - x
    assert ec_add(C510, pt(C510, 0, 0), pt(C510, 1, 0)) == pt(C510, 4, 0)


def test_group_law_commutative_and_associative():
    points = enumerate_points(C511) + [INFINITY]
    for p in points:
        for q in points:
            assert ec_add(C511, p, q) == ec_add(C511, q, p)
    for p in points[:4]:
        for q in points[:4]:
            for r in points[:4]:
                lhs = ec_add(C511, ec_add(C511, p, q), r)
                rhs = ec_add(C511, p, ec_add(C511, q, r))
                assert lhs == rhs


def test_sum_of_conjugate_points_is_rational():
    # P + Frob(P) is fixed by Frobenius, so it is a point of degree 1; the
    # max of the summands' degrees tagged these 16 sums as degree 2.  P
    # runs over both points of each closed point of degree 2
    conjugate_sums = [
        ec_add(C511, AffinePoint(x, y, 2), AffinePoint(x**5, y**5, 2))
        for place in enumerate_points(C511, 2)
        for x, y in frobenius_orbit_by_powering(5, place.x, place.y)
    ]
    finite = [s for s in conjugate_sums if s is not INFINITY]
    assert len(finite) == 16
    assert all(s.degree == 1 and (s.x**5, s.y**5) == (s.x, s.y) for s in finite)


def test_group_law_rejects_singular():
    with pytest.raises(ValueError):
        ec_add(SINGULAR, pt(SINGULAR, 1, 1), pt(SINGULAR, 1, 1))


def test_group_law_rejects_off_curve_point():
    # (0, 0) is off y^2 = x^3 + x + 1; adding it to (1, 2) once gave (3, 4)
    with pytest.raises(ValueError, match=r"\(F5\(0\), F5\(0\)\) is not on the curve"):
        ec_add(C511, pt(C511, 0, 0), pt(C511, 1, 2))
    with pytest.raises(ValueError, match="not on the curve"):
        ec_add(C511, pt(C511, 1, 2), pt(C511, 0, 0))


# -- picard order ---------------------------------------------------------------------


def test_picard_order_examples():
    assert picard_order(CurveSpec.polyline(F5)) == 1
    assert picard_order(C511) == 9
    with pytest.raises(ValueError):
        picard_order(SINGULAR)


def test_two_torsion_examples():
    assert has_two_torsion(C511) is False
    assert has_two_torsion(C510) is True
    c = CurveSpec.weierstrass(make_extension(7, 1), 1, 1)
    assert has_two_torsion(c) == (picard_order(c) % 2 == 0)
    with pytest.raises(ValueError, match="2-torsion applies to Weierstrass curves"):
        has_two_torsion(CurveSpec.polyline(F5))


# -- global invariants --------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_parity_law_exhaustive(q):
    # group order odd iff no rational 2-torsion, over every smooth curve
    _, pairs = smooth_weierstrass_pairs(q)
    field = pairs[0][0].field
    for a, b in pairs:
        curve = CurveSpec.weierstrass(field, a, b)
        assert (picard_order(curve) % 2 == 1) == (not has_two_torsion(curve))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_lagrange_annihilation(q):
    _, pairs = smooth_weierstrass_pairs(q)
    field = pairs[0][0].field
    for a, b in pairs:
        curve = CurveSpec.weierstrass(field, a, b)
        order = picard_order(curve)
        for p in enumerate_points(curve):
            assert ec_multiply(curve, order, p) is INFINITY


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_hasse_bound(q):
    _, pairs = smooth_weierstrass_pairs(q)
    field = pairs[0][0].field
    for a, b in pairs:
        curve = CurveSpec.weierstrass(field, a, b)
        total = point_report(curve).total
        assert abs(total - (q + 1)) <= 2 * math.sqrt(q)


# -- reports ------------------------------------------------------------------------


def test_report_fields_smooth():
    rep = point_report(C511)
    assert rep.smooth and rep.pic_order == 9 and rep.pic_parity == "odd"
    assert rep.two_torsion is False and rep.warning is None


def test_report_fields_singular():
    rep = point_report(SINGULAR)
    assert not rep.smooth
    assert rep.pic_order is None and rep.pic_parity is None
    assert rep.warning is not None
    assert [(p.x, p.y) for p in rep.singular_points] == [(F5.element(4), F5.zero())]


def test_report_polyline():
    rep = point_report(CurveSpec.polyline(F5))
    assert rep.affine == 5 and rep.total == 6
    assert rep.pic_order == 1 and rep.pic_parity == "odd"


# -- counts against the squaring oracle -----------------------------------------------


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_counts_match_squaring_oracle_on_every_cubic(p, k):
    # every (a, b), singular cubics included; Picard data on the smooth ones
    field = make_extension(p, k)
    for a in field.elements():
        for b in field.elements():
            curve = CurveSpec.weierstrass(field, a, b)
            affine = affine_count_by_squares(field, a, b)
            report = point_report(curve)
            assert (report.affine, report.total) == (affine, affine + 1)
            if curve.is_smooth:
                root = cubic_has_root(field, a, b)
                assert picard_order(curve) == affine + 1
                assert has_two_torsion(curve) is root
                assert report.two_torsion is root


# fields beyond F_25, where every cubic is too many to try: F_49, F_81,
# F_121 and the primes 61 to 113, each with seeded (a, b) samples and the
# singular cubic y^2 = x^3
SAMPLED_FIELDS = [(7, 2), (3, 4), (11, 2), (61, 1), (67, 1), (71, 1), (73, 1), (79, 1),
                  (83, 1), (89, 1), (97, 1), (101, 1), (103, 1), (107, 1), (109, 1), (113, 1)]


@pytest.mark.parametrize("p, k", SAMPLED_FIELDS)
def test_counts_match_squaring_oracle_on_sampled_cubics(p, k):
    field = make_extension(p, k)
    rng = random.Random(f"count-scan:{p}:{k}")
    elements = list(field.elements())
    pairs = [(field.zero(), field.zero())] + [(rng.choice(elements), rng.choice(elements)) for _ in range(6)]
    for a, b in pairs:
        curve = CurveSpec.weierstrass(field, a, b)
        affine = affine_count_by_squares(field, a, b)
        report = point_report(curve)
        assert (report.affine, report.total) == (affine, affine + 1)
        assert picard._count_scan(curve) == (affine, cubic_has_root(field, a, b))
        if curve.is_smooth:
            assert report.two_torsion is cubic_has_root(field, a, b)


def test_count_scan_makes_no_field_element_arithmetic(monkeypatch):
    # the scan adds and multiplies discrete logs through the Zech table,
    # and listing the rational points reads their y off the same logs
    calls = []
    for owner, name in (
        (FieldElement, "__mul__"), (FieldElement, "__add__"), (FieldElement, "__neg__"),
        (finfield, "is_square"), (finfield, "sqrt"),
    ):
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    for p, k in ((5, 1), (3, 2), (11, 2), (113, 1)):
        field = make_extension(p, k)
        for a, b in ((1, 3), (0, 1), (2, 0), (0, 0)):
            picard._count_scan(CurveSpec.weierstrass(field, a, b))
            enumerate_points(CurveSpec.weierstrass(field, a, b), 1)
    assert calls == []


def test_counting_builds_no_points(monkeypatch):
    calls = []
    listing = curvepoints.enumerate_points

    def counting(*args, **kwargs):
        calls.append(args)
        return listing(*args, **kwargs)

    monkeypatch.setattr(curvepoints, "enumerate_points", counting)
    for curve in (C511, C510, SINGULAR, CurveSpec.weierstrass(make_extension(11, 2), 1, 3)):
        point_report(curve)
        if curve.is_smooth:
            picard_order(curve)
            has_two_torsion(curve)
            hasse_principle(curve, 2)
            hasse_principle(curve, 3)
    assert calls == []


def test_one_scan_per_curve_object(monkeypatch):
    # point_report, picard_order, has_two_torsion and hasse_principle share
    # the curve's one x-scan of F_q; building the curve again returns the
    # same object, which scans no more.  Curves live for the process, so
    # another test may have made the scan already
    field = make_extension(7, 2)
    curve = CurveSpec.weierstrass(field, 1, 3)
    fresh = curve._scan is None
    scans = []
    elements = FiniteField.elements

    def counting(field):
        scans.append(field)
        return elements(field)

    monkeypatch.setattr(FiniteField, "elements", counting)
    report = point_report(curve)
    decision = hasse_principle(curve, 3)
    assert len(scans) == fresh
    assert decision.reason.pic_order == report.total == picard_order(curve)
    assert has_two_torsion(curve) is report.two_torsion
    assert len(scans) == fresh
    assert CurveSpec.weierstrass(field, 1, 3) is curve
    hasse_principle(CurveSpec.weierstrass(field, 1, 3), 2)
    assert len(scans) == fresh


# (p, k, a, b, top degree): a = 0 and b = 0 have no log, (0, 0) and
# y^2 = x^3 + 2x + 3 over F_5 are singular; q^degree stays <= 729.  The
# cubics over F_53 and F_61 are of the size the benchmark's genus calls
# walk at degree 1
SCAN_CURVES = [
    (3, 1, 2, 1, 3), (3, 1, 0, 1, 3), (3, 1, 1, 0, 3), (3, 1, 0, 0, 3),
    (5, 1, 1, 1, 3), (5, 1, 0, 2, 3), (5, 1, 2, 0, 3), (5, 1, 2, 3, 3), (5, 1, 0, 0, 3),
    (3, 2, (0, 1), (1, 1), 3), (3, 2, 0, (0, 1), 3), (3, 2, (2, 1), 0, 3),
    (5, 2, (1, 1), (0, 3), 2), (5, 2, 0, (2, 1), 2), (5, 2, (0, 2), 0, 2), (5, 2, 0, 0, 2),
    (53, 1, 7, 11, 1), (61, 1, 3, 0, 1),
]


@pytest.mark.parametrize("p, k, a, b, top", SCAN_CURVES)
def test_log_scan_matches_trying_every_y(p, k, a, b, top):
    # the oracle squares every y and walks each orbit by raising field
    # elements to the q-th power, with no log: the root scan finds every
    # point, and the closed listing the least point of each orbit of
    # length degree
    field = make_extension(p, k)
    curve = CurveSpec.weierstrass(field, field.element(a), field.element(b))
    for degree in range(1, top + 1):
        ext = make_extension(p, k * degree)
        scanned = [(x0.coeffs, y0.coeffs) for x0, y0 in curvepoints._cubic_points(curve, ext)]
        assert scanned == [(x0, y0) for x0, y0, _ in points_by_trying_every_y(curve, degree)]
        places = enumerate_points(curve, degree)
        assert [(pt.x.coeffs, pt.y.coeffs, pt.degree) for pt in places] == closed_points_by_trying_every_y(curve, degree)
        assert all(pt.degree == len(frobenius_orbit_by_powering(field.q, pt.x, pt.y)) for pt in places)
