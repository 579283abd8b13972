"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.

Numeric expectations are exact (the arithmetic is exact); the stated
runtime ceilings are asserted where a criterion carries one.
"""

import json
import random
import time
from importlib import resources

import pytest

from hasseforms.curvepoints import (
    enumerate_points,
    point_report,
)
from hasseforms.curvering import CurveSpec, RingElement, RingMatrix, congruence, diagonal_rows
from hasseforms.finfield import make_extension
from hasseforms.forms import (
    GramMatrix,
    isom_search,
    verify_genus_witness,
)
from hasseforms.funcfield import Poly
from hasseforms.hasse import hasse_principle
from hasseforms.local import FieldForm, field_isomorphic
from hasseforms.paper import load_bundled_pair
from hasseforms.picard import FAILS, HOLDS, is_smooth, picard_order
from hasseforms.serialize import pair_from_json

from oracles import INFINITY, brute_force_congruent, ec_multiply, smooth_weierstrass_pairs, symmetric_nondegenerate

F5 = make_extension(5, 1)


class Criterion:
    def __init__(self, number, description, limit=None):
        self.number = number
        self.description = description
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.description} ({elapsed:.2f}s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def test_criterion_1_point_count():
    with Criterion(1, "projective point count of the singular cubic over F_5 is 7", limit=1.0):
        curve = CurveSpec.weierstrass(F5, 2, 3)
        assert point_report(curve).total == 7


def test_criterion_2_singularity():
    with Criterion(2, "singular locus is exactly {(4, 0)}"):
        curve = CurveSpec.weierstrass(F5, 2, 3)
        smooth, singular = is_smooth(curve)
        assert smooth is False
        assert [(p.x.coeffs[0], p.y.coeffs[0]) for p in singular] == [(4, 0)]


def test_criterion_3_congruence_identities():
    with Criterion(3, "all bundled congruence identities hold exactly"):
        ec = load_bundled_pair("singular_cubic_pair")
        for q, _ in ec["witness"].pairs:
            assert congruence(q, ec["F"].matrix) == ec["G"].matrix
        # the same affine-line identities must hold over several primes
        line = json.loads((resources.files("hasseforms") / "fixtures" / "polyline_pair.json").read_text())
        for p in (3, 5, 7):
            line["curve"]["field"] = {"p": p}
            pair = pair_from_json(line)
            for q, _ in pair["witness"].pairs:
                assert congruence(q, pair["F"].matrix) == pair["G"].matrix


def test_criterion_4_genus_verification():
    with Criterion(4, "genus witnesses: Certified for the line pair, gap at (4,0) for the cubic pair", limit=10.0):
        line = load_bundled_pair("polyline_pair")
        report = verify_genus_witness(line["F"], line["G"], line["witness"], degree=3)
        assert report.verdict == "Certified"
        assert report.uncovered == ()
        assert len(report.covered) == 55  # every monic irreducible of degree <= 3

        ec = load_bundled_pair("singular_cubic_pair")
        report = verify_genus_witness(ec["F"], ec["G"], ec["witness"], degree=2)
        assert report.verdict == "GapFound"
        assert [(p.x.coeffs[0], p.y.coeffs[0]) for p in report.uncovered] == [(4, 0)]


def test_criterion_5_isometry_searches():
    ec = load_bundled_pair("singular_cubic_pair")
    line = load_bundled_pair("polyline_pair")

    with Criterion(5, "negative search: 1_2 vs G over the cubic ring (deg_x<=2, deg_y<=1)", limit=60.0):
        assert isom_search(ec["F"], ec["G"], deg_x=2, deg_y=1) is None

    with Criterion(5, "negative search: the affine-line pair (deg<=2)", limit=60.0):
        assert isom_search(line["F"], line["G"], deg_x=2) is None

    with Criterion(5, "positive control: identity vs identity returns the identity"):
        for curve in (CurveSpec.polyline(F5), ec["curve"]):
            f = GramMatrix.identity(curve, 2)
            assert isom_search(f, f, deg_x=1, deg_y=1) == RingMatrix(curve, diagonal_rows([1, 1]))


def test_criterion_6_hasse_verdict_table():
    with Criterion(6, "verdict table over the line and the two smooth cubics"):
        for q in (3, 5, 7, 9):
            field = make_extension(3, 2) if q == 9 else make_extension(q, 1)
            line = CurveSpec.polyline(field)
            for n in (1, 2, 3, 5):
                assert hasse_principle(line, n).verdict == HOLDS
        odd_curve = CurveSpec.weierstrass(F5, 1, 1)
        assert hasse_principle(odd_curve, 3).verdict == HOLDS
        d = hasse_principle(odd_curve, 2)
        assert d.verdict == FAILS and d.reason.pic_order == 9
        even_curve = CurveSpec.weierstrass(F5, -1, 0)
        for n in (1, 2, 3, 4, 5):
            d = hasse_principle(even_curve, n)
            assert d.verdict == FAILS and d.reason.pic_order == 8


def test_criterion_7_parity_suite():
    with Criterion(7, "parity law over every smooth cubic for q in {3,5,7}", limit=30.0):
        checked = 0
        for q in (3, 5, 7):
            field, pairs = smooth_weierstrass_pairs(q)
            for a, b in pairs:
                curve = CurveSpec.weierstrass(field, a, b)
                cubic = curve.cubic()
                has_root = any(cubic.evaluate(x).is_zero() for x in field.elements())
                assert (picard_order(curve) % 2 == 1) == (not has_root)
                checked += 1
        assert checked > 50


def test_criterion_8_witt_oracle_equivalence():
    with Criterion(8, "rank+discriminant agrees with exhaustive congruence search"):
        for p in (3, 5):
            ints = symmetric_nondegenerate(p, 2)
            field = make_extension(p, 1)
            forms = [FieldForm(field, rows) for rows in ints]
            for fi, f in zip(ints, forms):
                for gi, g in zip(ints, forms):
                    assert field_isomorphic(f, g) == brute_force_congruent(fi, gi, p)
        rng = random.Random(2024)
        field = make_extension(3, 1)
        pool = symmetric_nondegenerate(3, 3)
        for _ in range(200):
            fi, gi = rng.choice(pool), rng.choice(pool)
            lhs = field_isomorphic(FieldForm(field, fi), FieldForm(field, gi))
            assert lhs == brute_force_congruent(fi, gi, 3)


def test_criterion_9_algebraic_properties():
    with Criterion(9, "determinant multiplicativity, norm multiplicativity, order annihilation"):
        rng = random.Random(99)
        curve = CurveSpec.weierstrass(F5, 2, 3)

        def rand_elem(max_deg):
            a = Poly(F5, [rng.randrange(5) for _ in range(max_deg + 1)])
            b = Poly(F5, [rng.randrange(5) for _ in range(max_deg + 1)])
            return RingElement(curve, a, b)

        for n in (2, 3):
            for _ in range(10):
                q = RingMatrix(curve, [[rand_elem(1) for _ in range(n)] for _ in range(n)])
                f = RingMatrix(curve, [[rand_elem(1) for _ in range(n)] for _ in range(n)])
                assert congruence(q, f).det() == q.det() * q.det() * f.det()

        for _ in range(60):
            u, v = rand_elem(2), rand_elem(2)
            assert (u * v).norm() == u.norm() * v.norm()

        for q in (3, 5, 7):
            field, pairs = smooth_weierstrass_pairs(q)
            for a, b in pairs:
                smooth_curve = CurveSpec.weierstrass(field, a, b)
                order = picard_order(smooth_curve)
                for point in enumerate_points(smooth_curve):
                    assert ec_multiply(smooth_curve, order, point) is INFINITY
